package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"destset"
	"destset/internal/workload"
)

// env is one run's context: its options, private scratch directory and
// (in the traced run) tracer.
type env struct {
	o   options
	dir string
	tr  *tracer
	n   int
}

// fresh creates a new empty directory under the run's scratch dir.
func (e *env) fresh(prefix string) (string, error) {
	e.n++
	return os.MkdirTemp(e.dir, fmt.Sprintf("%s-%d-", prefix, e.n))
}

// seeds derives n cell seeds from the run seed. Seeds of nearby runs do
// not overlap, so two runs never share a dataset.
func (e *env) seeds(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = e.o.seed + 1000*uint64(i)
	}
	return out
}

// workloads maps each workload name to its constructor.
var workloads = map[string]func(*env) (workloadRun, error){
	"fig5-trace":    newFig5,
	"fig7-timing":   newFig7,
	"cold-start":    newColdStart,
	"distrib-sweep": newDistribSweep,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// paperWorkloads are the six paper workloads at one scale.
func paperWorkloads(warm, measure int) []destset.WorkloadSpec {
	names := workload.PaperNames()
	out := make([]destset.WorkloadSpec, len(names))
	for i, n := range names {
		out[i] = destset.WorkloadSpec{Name: n, Warm: warm, Measure: measure}
	}
	return out
}

// paperPolicies are the four predictor policies of Figures 5, 7 and 8.
var paperPolicies = []destset.Policy{destset.Owner, destset.BroadcastIfShared, destset.Group, destset.OwnerGroup}

// fig5Engines are Figure 5's engines: the snooping and directory
// endpoints plus multicast snooping under the four policies at the
// standout predictor configuration.
func fig5Engines() []destset.EngineSpec {
	out := []destset.EngineSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
	}
	for _, p := range paperPolicies {
		out = append(out, destset.SpecForPolicy(p))
	}
	return out
}

// prewarm resolves every dataset of def through the shared store, two
// at a time.
func prewarm(def destset.SweepDef) error {
	ds, err := def.Datasets()
	if err != nil {
		return err
	}
	return slots(len(ds), func(_, i int) error { return ds[i].Prewarm() })
}

// slots runs fn for every index 0..n-1 from inFlight goroutines, each
// identified by its slot number, one index at a time per slot, and
// returns the first error.
func slots(n int, fn func(slot, cell int) error) error {
	var (
		mu   sync.Mutex
		next int
		errs []error
		wg   sync.WaitGroup
	)
	for s := 0; s < inFlight; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || len(errs) > 0
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(slot, i); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
				}
			}
		}(s)
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// singleCells runs cells 0..n-1 as single-cell runs, one per slot at a
// time — the traced runs' way to time each cell. run executes cell i with
// the slot's traced predictors (see registerTracedPolicies) and times its
// JSONL encoding into enc; a sweep.cell span under parent, with the cell's
// predictor and encoding rollups beneath it, is recorded around it.
func singleCells[T any](tr *tracer, parent, n int, run func(slot, i int, enc *encAcc) (T, error)) ([]T, error) {
	if err := registerTracedPolicies(); err != nil {
		return nil, err
	}
	out := make([]T, n)
	err := slots(n, func(slot, i int) error {
		acc := &predAcc{}
		slotAcc[slot].Store(acc)
		var enc encAcc
		start := time.Now()
		cell := tr.begin("sweep.cell", parent, i)
		res, err := run(slot, i, &enc)
		tr.end(cell)
		end := time.Now()
		if err != nil {
			return err
		}
		tr.rollup("predictor.predict", cell, i, start, end, acc.predictN, acc.predictNs)
		tr.rollup("predictor.train", cell, i, start, end, acc.trainN, acc.trainNs)
		tr.rollup("jsonl.encode", cell, i, start, end, enc.n, enc.ns)
		out[i] = res
		return nil
	})
	return out, err
}

// only returns the single result of a single-cell run.
func only[T any](res []T, err error) (T, error) {
	var zero T
	if err != nil {
		return zero, err
	}
	if len(res) != 1 {
		return zero, fmt.Errorf("single-cell run returned %d results", len(res))
	}
	return res[0], nil
}

// digest is a short stable hash of v's JSON encoding.
func digest(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // every digested value is plain data
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

// cellKey names a cell in the digest tables.
func cellKey(engine, workload string, seed uint64) string {
	return fmt.Sprintf("%s|%s|%d", engine, workload, seed)
}

// obsKey is a JSONL record's cell identity; trace records carry Engine,
// timing records Sim.
type obsKey struct {
	Engine   string `json:"Engine"`
	Sim      string `json:"Sim"`
	Workload string `json:"Workload"`
	Seed     uint64 `json:"Seed"`
	Format   string `json:"format"`
}

// planLines splits a JSONL observation stream into its records, each
// tagged with its plan cell index, and sorts them into plan order
// (records of one cell keep their order). Manifest records are dropped.
func planLines(plan *destset.SweepPlan, data []byte) ([]planLine, error) {
	index := make(map[[3]string]int, plan.Len())
	for i, c := range plan.Cells() {
		index[[3]string{c.Engine, c.Workload, fmt.Sprint(c.Seed)}] = i
	}
	var out []planLine
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var k obsKey
		if err := json.Unmarshal(line, &k); err != nil {
			return nil, fmt.Errorf("decoding observation: %w", err)
		}
		if k.Format != "" {
			continue
		}
		label := k.Engine
		if label == "" {
			label = k.Sim
		}
		i, ok := index[[3]string{label, k.Workload, fmt.Sprint(k.Seed)}]
		if !ok {
			return nil, fmt.Errorf("observation names a cell outside the plan: %s/%s/%d", label, k.Workload, k.Seed)
		}
		out = append(out, planLine{cell: i, line: line})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].cell < out[b].cell })
	return out, nil
}

// planLine is one JSONL record and its plan cell index.
type planLine struct {
	cell int
	line []byte
}

// joinLines reassembles records into a JSONL stream.
func joinLines(ls []planLine) []byte {
	var b bytes.Buffer
	for _, l := range ls {
		b.Write(l.line)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// table2Error is the mean absolute difference, in percentage points,
// between measured directory indirection percentages and the paper's
// Table 2 values over the workloads in measured. Each workload's
// measurement is the mean over its seeds.
func table2Error(measured map[string][]float64) float64 {
	names := make([]string, 0, len(measured))
	for name := range measured {
		names = append(names, name)
	}
	sort.Strings(names)
	var sum float64
	var n int
	for _, name := range names {
		xs := measured[name]
		ref, ok := workload.PaperIndirections[name]
		if !ok || len(xs) == 0 {
			continue
		}
		var m float64
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		d := m - ref
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
