package main

import (
	"context"
	"os"
	"path/filepath"
	"sync"

	"destset"
)

// fig5 is the Figure 5 sweep replayed from a warm dataset store: the
// six paper workloads × {snooping, directory, owner, broadcast-if-shared,
// group, owner-group} at the standout predictor configuration × seeds,
// with per-interval observations streaming to a JSONL file.
type fig5 struct {
	e             *env
	warm, measure int
	def           destset.SweepDef
	plan          *destset.SweepPlan
	sinkPath      string
}

func newFig5(e *env) (workloadRun, error) {
	warm, measure, seeds, interval := 50_000, 50_000, 2, 10_000
	if e.o.tiny {
		warm, measure, seeds, interval = 1500, 1500, 1, 500
	}
	def := destset.NewTraceSweepDef(fig5Engines(), paperWorkloads(warm, measure),
		destset.WithSeeds(e.seeds(seeds)...), destset.WithInterval(interval))
	plan, err := def.Plan()
	if err != nil {
		return nil, err
	}
	return &fig5{e: e, warm: warm, measure: measure, def: def, plan: plan,
		sinkPath: filepath.Join(e.dir, "fig5.jsonl")}, nil
}

// setup generates every dataset into an empty memory tier.
func (f *fig5) setup() error {
	destset.PurgeDatasets()
	if err := destset.SetDatasetDir(""); err != nil {
		return err
	}
	return prewarm(f.def)
}

func (f *fig5) pass(tr *tracer) (passOut, error) {
	file, err := os.Create(f.sinkPath)
	if err != nil {
		return passOut{}, err
	}
	sink := destset.NewJSONLObserver(file)
	var results []destset.RunResult
	if tr == nil {
		var r *destset.Runner
		r, err = f.def.Runner(destset.WithParallelism(inFlight), destset.WithObserver(sink.Observe))
		if err == nil {
			results, err = r.Run(context.Background())
		}
	} else {
		results, err = f.tracedPass(tr, sink)
	}
	if cerr := sink.Close(); err == nil {
		err = cerr
	}
	return passOut{
		cells:  len(results),
		misses: int64(len(results)) * int64(f.warm+f.measure),
		out:    results,
	}, err
}

// tracedPass runs every cell as its own single-cell run, one per slot
// at a time, with traced predictors and a timed JSONL sink.
func (f *fig5) tracedPass(tr *tracer, sink *destset.JSONLObserver) ([]destset.RunResult, error) {
	pass := tr.begin("pass", 0, -1)
	defer tr.end(pass)
	var mu sync.Mutex
	return singleCells(tr, pass, f.plan.Len(), func(slot, i int, enc *encAcc) (destset.RunResult, error) {
		def := f.def
		def.Engines = tracedEngines(f.def.Engines, slot)
		r, err := def.Runner(destset.WithParallelism(1), destset.WithCells([]int{i}),
			destset.WithObserver(func(o destset.Observation) { enc.time(&mu, func() { sink.Observe(o) }) }))
		if err != nil {
			return destset.RunResult{}, err
		}
		return only(r.Run(context.Background()))
	})
}

func (f *fig5) verify(outs []passOut) verdict {
	var v verdict
	var first map[string]string
	for p, o := range outs {
		results := o.out.([]destset.RunResult)
		v.attempted += f.plan.Len()
		if len(results) != f.plan.Len() {
			v.fail(f.plan.Len(), "pass %d delivered %d of %d cells", p, len(results), f.plan.Len())
			continue
		}
		got := make(map[string]string, len(results))
		for _, r := range results {
			got[cellKey(r.Engine, r.Workload, r.Seed)] = digest(r.Totals)
		}
		if p == 0 {
			first = got
			v.digests = got
			v.checkReference(f.e.o, "fig5-trace", got)
		} else {
			v.checkSame(p, first, got)
		}
		v.checkBracket(p, results)
	}
	return v
}

// checkBracket checks that every predictor's indirection percentage
// lies between snooping's and directory's on each workload and seed.
// Multicast always sends to {requester, home}, so this holds by
// construction.
func (v *verdict) checkBracket(pass int, results []destset.RunResult) {
	type ws struct {
		w string
		s uint64
	}
	lo, hi := map[ws]float64{}, map[ws]float64{}
	for _, r := range results {
		k := ws{r.Workload, r.Seed}
		switch r.Engine {
		case destset.ProtocolSnooping:
			lo[k] = r.Tradeoff.IndirectionPercent
		case destset.ProtocolDirectory:
			hi[k] = r.Tradeoff.IndirectionPercent
		}
	}
	for _, r := range results {
		k := ws{r.Workload, r.Seed}
		x := r.Tradeoff.IndirectionPercent
		if x < lo[k] || x > hi[k] {
			v.fail(1, "pass %d: %s on %s seed %d: indirection %.2f%% outside [snooping %.2f%%, directory %.2f%%]",
				pass, r.Engine, r.Workload, r.Seed, x, lo[k], hi[k])
		}
	}
}

// table2 takes the directory cells' indirection percentages.
func (f *fig5) table2(outs []passOut) float64 {
	measured := map[string][]float64{}
	for _, r := range outs[0].out.([]destset.RunResult) {
		if r.Engine == destset.ProtocolDirectory {
			measured[r.Workload] = append(measured[r.Workload], r.Tradeoff.IndirectionPercent)
		}
	}
	return table2Error(measured)
}
