package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"

	"destset"
	"destset/internal/experiments"
	"destset/internal/workload"
)

// coldStart is what a fresh traceeval or sharing process pays with empty
// -dataset-dir and -result-dir. Each pass starts from empty memory tiers
// and empty directories and runs three steps:
//
//  1. the six paper workloads × {snooping, directory} with the result
//     store armed: every dataset is generated and spilled, every cell
//     stored;
//  2. with the memory tiers purged, the Table 2 / Figures 2-4
//     characterization over the same datasets, loaded from disk;
//  3. with the memory tiers purged again, step 1 rerun: it must compute
//     0 cells and produce byte-identical output.
type coldStart struct {
	e             *env
	warm, measure int
	seeds         []uint64
	def           destset.SweepDef
	plan          *destset.SweepPlan
	// traced collects the traced passes' result-store counters.
	traced []destset.ResultStats
}

func newColdStart(e *env) (workloadRun, error) {
	warm, measure, seeds := 50_000, 50_000, 2
	if e.o.tiny {
		warm, measure, seeds = 1500, 1500, 1
	}
	c := &coldStart{e: e, warm: warm, measure: measure, seeds: e.seeds(seeds)}
	return c, nil
}

// setup resets every store and plans the sweep; the cold cost itself is
// the timed phase.
func (c *coldStart) setup() error {
	destset.PurgeDatasets()
	if err := destset.SetDatasetDir(""); err != nil {
		return err
	}
	if err := destset.SetResultDir(""); err != nil {
		return err
	}
	c.def = destset.NewTraceSweepDef(fig5Engines()[:2], paperWorkloads(c.warm, c.measure), destset.WithSeeds(c.seeds...))
	plan, err := c.def.Plan()
	c.plan = plan
	return err
}

// coldOut is one pass's raw output.
type coldOut struct {
	results       []destset.RunResult
	first, rerun  []byte
	stored, reran destset.ResultStats
	// generations and diskHits count dataset-store work per step.
	generations [3]uint64
	diskHits    [3]uint64
	chars       []experiments.Characterization
}

func (c *coldStart) pass(tr *tracer) (passOut, error) {
	root, err := c.e.fresh("cold")
	if err != nil {
		return passOut{}, err
	}
	resultDir := filepath.Join(root, "results")
	destset.PurgeDatasets()
	if err := destset.SetDatasetDir(filepath.Join(root, "datasets")); err != nil {
		return passOut{}, err
	}
	defer destset.SetDatasetDir("")

	var out coldOut
	step := func(i int, fn func() error) error {
		before := destset.DatasetCacheStats()
		id := tr.begin([]string{"cold.sweep", "cold.characterize", "cold.rerun"}[i], 0, -1)
		err := fn()
		tr.end(id)
		after := destset.DatasetCacheStats()
		out.generations[i] = after.Generations - before.Generations
		out.diskHits[i] = after.DiskHits - before.DiskHits
		return err
	}
	err = step(0, func() error {
		rs := destset.NewResultStore()
		if err := rs.SetDir(resultDir); err != nil {
			return err
		}
		var err error
		out.first, out.results, err = c.sweep(rs, tr)
		out.stored = rs.Stats()
		return err
	})
	if err == nil {
		err = step(1, func() error {
			destset.PurgeDatasets()
			for _, seed := range c.seeds {
				ch, err := experiments.Characterize(experiments.Options{
					Seed: seed, WarmMisses: c.warm, Misses: c.measure,
					TimedWarmMisses: c.warm, TimedMisses: c.measure,
					Workloads: workload.PaperNames(), Parallelism: inFlight,
				})
				if err != nil {
					return err
				}
				out.chars = append(out.chars, ch...)
			}
			return nil
		})
	}
	if err == nil {
		err = step(2, func() error {
			destset.PurgeDatasets()
			rs := destset.NewResultStore()
			if err := rs.SetDir(resultDir); err != nil {
				return err
			}
			var err error
			out.rerun, _, err = c.sweep(rs, tr)
			out.reran = rs.Stats()
			return err
		})
	}
	if tr != nil {
		c.traced = append(c.traced, out.stored, out.reran)
	}
	cells := 2 * c.plan.Len()
	return passOut{
		cells:   cells,
		misses:  int64(cells) * int64(c.warm+c.measure),
		out:     out,
		cleanup: func() { os.RemoveAll(root) },
	}, err
}

// sweep runs the cold-start sweep against a result store. Traced, every
// cell is its own single-cell run, one per slot at a time.
func (c *coldStart) sweep(rs *destset.ResultStore, tr *tracer) ([]byte, []destset.RunResult, error) {
	var buf bytes.Buffer
	sink := destset.NewJSONLObserver(&buf)
	var results []destset.RunResult
	var err error
	if tr == nil {
		var r *destset.Runner
		r, err = c.def.Runner(destset.WithParallelism(inFlight), destset.WithObserver(sink.Observe), destset.WithResultStore(rs))
		if err == nil {
			results, err = r.Run(context.Background())
		}
	} else {
		var mu sync.Mutex
		results, err = singleCells(tr, 0, c.plan.Len(), func(_, i int, enc *encAcc) (destset.RunResult, error) {
			r, err := c.def.Runner(destset.WithParallelism(1), destset.WithCells([]int{i}), destset.WithResultStore(rs),
				destset.WithObserver(func(o destset.Observation) { enc.time(&mu, func() { sink.Observe(o) }) }))
			if err != nil {
				return destset.RunResult{}, err
			}
			return only(r.Run(context.Background()))
		})
	}
	if ferr := sink.Flush(); err == nil {
		err = ferr
	}
	return buf.Bytes(), results, err
}

func (c *coldStart) verify(outs []passOut) verdict {
	var v verdict
	var first map[string]string
	cells := c.plan.Len()
	datasets := uint64(len(c.seeds) * len(workload.PaperNames()))
	for p, o := range outs {
		out := o.out.(coldOut)
		v.attempted += 2 * cells
		got := make(map[string]string, len(out.results))
		for _, r := range out.results {
			got[cellKey(r.Engine, r.Workload, r.Seed)] = digest(r.Totals)
		}
		if p == 0 {
			first = got
			v.digests = got
			v.checkReference(c.e.o, "cold-start", got)
		} else {
			v.checkSame(p, first, got)
		}
		if out.stored.Stores != uint64(cells) || out.generations[0] != datasets {
			v.fail(cells, "pass %d step 1 stored %d of %d cells and generated %d of %d datasets",
				p, out.stored.Stores, cells, out.generations[0], datasets)
		}
		if out.generations[1] != 0 || out.diskHits[1] != datasets {
			v.fail(1, "pass %d step 2 generated %d datasets and loaded %d of %d from disk",
				p, out.generations[1], out.diskHits[1], datasets)
		}
		if out.reran.Stores != 0 || out.generations[2] != 0 || out.reran.DiskHits != uint64(cells) {
			v.fail(cells, "pass %d rerun computed %d cells, generated %d datasets, served %d of %d cells from disk",
				p, out.reran.Stores, out.generations[2], out.reran.DiskHits, cells)
		}
		a, aerr := planLines(c.plan, out.first)
		b, berr := planLines(c.plan, out.rerun)
		if aerr != nil || berr != nil || !bytes.Equal(joinLines(a), joinLines(b)) {
			v.fail(cells, "pass %d rerun output differs from the first run in plan order (%v, %v)", p, aerr, berr)
		}
	}
	return v
}

// table2 takes the characterization's directory indirection column.
func (c *coldStart) table2(outs []passOut) float64 {
	measured := map[string][]float64{}
	for _, ch := range outs[0].out.(coldOut).chars {
		measured[ch.Workload] = append(measured[ch.Workload], ch.DirIndirectPc)
	}
	return table2Error(measured)
}
