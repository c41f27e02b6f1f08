package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-tests check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runResult is the benchmark's final JSON line.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// invoke runs the benchmark in-process and decodes its result line.
func invoke(t *testing.T, args ...string) (runResult, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append(args, "-scratch", t.TempDir())
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("run %v exited %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line of %v is not a result: %v\n%s", args, err, out.String())
	}
	return r, out.String()
}

// checkMetrics checks that got holds exactly the metrics of want, each
// with its unit, and that the printed lines name every one of them.
func checkMetrics(t *testing.T, got map[string]metric, printed string, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		case !strings.Contains(printed, m.Name+" "):
			t.Errorf("metric %s not printed", m.Name)
		}
	}
	if len(got) != len(want) {
		var extra []string
		for n := range got {
			if !contains(names, n) {
				extra = append(extra, n)
			}
		}
		sort.Strings(extra)
		t.Errorf("unlisted metrics reported: %v", extra)
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// TestEveryWorkloadReportsEveryMetric runs every workload at the
// self-test scale, untraced and traced, and checks that each prints every
// metric BENCHMARK.json names, with its unit, and verifies cleanly.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	b := readBenchmarkFile(t)
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %s, which the benchmark does not have", w.Name)
		}
	}
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				r, printed := invoke(t, "-workload", name, "-seed", "3", "-seconds", "0.2", "-tiny", "-trace", trace)
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct=%v failed=%d attempted=%d\n%s", r.Correct, r.Failed, r.Attempted, printed)
				}
				if trace == "0" {
					checkMetrics(t, r.Metrics, printed, b.EndToEnd)
				} else {
					checkMetrics(t, r.Metrics, printed, b.PerLayer)
				}
				if !strings.Contains(printed, "error_rate ") {
					t.Errorf("error_rate not printed")
				}
			})
		}
	}
}

// TestCorruptedDigestReportsFailures shows verification catches a
// mismatch: at the default seed the recorded digests verify, and with
// one of them corrupted the same run reports a failed cell.
func TestCorruptedDigestReportsFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload at full scale")
	}
	args := []string{"-workload", "distrib-sweep", "-seed", "1", "-seconds", "0.01", "-trace", "0"}
	clean, printed := invoke(t, args...)
	if !clean.Correct || clean.Failed != 0 {
		t.Fatalf("default seed does not verify: failed=%d\n%s", clean.Failed, printed)
	}
	ref := referenceDigests["distrib-sweep"]
	defer func() { referenceDigests["distrib-sweep"] = ref }()
	bad := make(map[string]string, len(ref))
	for k, d := range ref {
		bad[k] = d
	}
	bad[sortedKeys(ref)[0]] = "0000000000000000"
	referenceDigests["distrib-sweep"] = bad
	got, printed := invoke(t, args...)
	if got.Correct || got.Failed == 0 {
		t.Fatalf("corrupted digest went unnoticed: correct=%v failed=%d\n%s", got.Correct, got.Failed, printed)
	}
	if !strings.Contains(printed, "FAIL cell") || !strings.Contains(printed, "error_rate ") {
		t.Errorf("failure not reported:\n%s", printed)
	}
}

// TestUnknownWorkloadFails checks the command refuses bad arguments
// without printing a result.
func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nosuch"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, output %q", code, out.String())
	}
}
