// Command perfbench is the repository benchmark. One invocation runs one
// named workload through the public facade (destset.Runner,
// TimingRunner, SweepDef, the dataset and result-store controls) and
// internal/distrib, verifies every output, prints each metric by name
// with its unit, and ends with one JSON result line:
//
//	go run . -workload fig5-trace -seed 1 -seconds 10 -trace 0
//
// With -trace 0 the run reports the end-to-end metrics of BENCHMARK.json,
// measured with tracing off. With -trace 1 it is the separate traced run:
// it times calls into every layer on the workload's own inputs, writes
// the spans it recorded, and reports the per-layer metrics. Registries
// are process-global, so each run belongs in its own process.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one invocation's flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// tiny shrinks every workload to the self-test scale.
	tiny bool
	// printDigests prints the run's per-cell digests in the layout of
	// digests.go instead of the result line.
	printDigests bool
	scratch      string
	spans        string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "run at the self-test scale")
	fs.BoolVar(&o.printDigests, "print-digests", false, "print per-cell reference digests for digests.go")
	fs.StringVar(&o.scratch, "scratch", "", "directory for the run's temporary files (default: the system temp dir)")
	fs.StringVar(&o.spans, "spans", "", "directory the traced run writes its spans to (none: not written)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: -seconds must be positive\n")
		return 2
	}
	newW, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := runWorkload(o, newW, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	if o.printDigests {
		printDigests(stdout, o.workload, res.digests)
		return 0
	}
	res.print(stdout)
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
	// digests are the run's per-cell digests (for -print-digests).
	digests map[string]string
}

func (r *result) set(name string, value float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

// print writes one line per metric, the failures, and the JSON result
// line last.
func (r *result) print(w io.Writer) {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, m.Value, m.Unit)
	}
	rate := 0.0
	if r.attempted > 0 {
		rate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-34s %16.6g ratio (%d of %d cells)\n", "error_rate", rate, r.failed, r.attempted)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && len(r.failures) == 0, r.attempted, r.failed, r.metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// scratchDir creates the run's private temporary directory.
func scratchDir(o options) (string, error) {
	base := o.scratch
	if base != "" {
		if err := os.MkdirAll(base, 0o755); err != nil {
			return "", err
		}
	}
	dir, err := os.MkdirTemp(base, "perfbench-"+o.workload+"-")
	if err != nil {
		return "", err
	}
	return filepath.Abs(dir)
}

var errNoWork = errors.New("timed phase delivered no cells")
