package main

import (
	"fmt"
	"io"
	"sort"
)

// checkReference compares a default-seed run's per-cell digests with the
// ones recorded in digests.go; other seeds have no reference.
func (v *verdict) checkReference(o options, workload string, got map[string]string) {
	if o.seed != defaultSeed || o.tiny {
		return
	}
	ref := referenceDigests[workload]
	for _, k := range sortedKeys(got) {
		if want, ok := ref[k]; !ok {
			v.fail(1, "cell %s has no reference digest", k)
		} else if got[k] != want {
			v.fail(1, "cell %s: digest %s, reference %s", k, got[k], want)
		}
	}
	for _, k := range sortedKeys(ref) {
		if _, ok := got[k]; !ok {
			v.fail(1, "reference cell %s was not delivered", k)
		}
	}
}

// checkSame compares a later pass's digests with the first pass's: the
// same inputs must give the same statistics on every pass.
func (v *verdict) checkSame(pass int, first, got map[string]string) {
	for _, k := range sortedKeys(got) {
		if got[k] != first[k] {
			v.fail(1, "pass %d: cell %s: digest %s, first pass %s", pass, k, got[k], first[k])
		}
	}
	if len(got) != len(first) {
		v.fail(max(1, len(first)-len(got)), "pass %d delivered %d distinct cells, first pass %d", pass, len(got), len(first))
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printDigests writes a run's digests as a digests.go table entry.
func printDigests(w io.Writer, workload string, digests map[string]string) {
	fmt.Fprintf(w, "\t%q: {\n", workload)
	for _, k := range sortedKeys(digests) {
		fmt.Fprintf(w, "\t\t%q: %q,\n", k, digests[k])
	}
	fmt.Fprintf(w, "\t},\n")
}
