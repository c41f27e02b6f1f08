package main

import (
	"context"
	"os"
	"path/filepath"
	"sync"

	"destset"
	"destset/internal/experiments"
)

// fig7 is the Figure 7 and Figure 8 timing sweep from a warm dataset
// store: both CPU models × their six configurations over the six paper
// workloads × seeds, one JSONL line per cell.
type fig7 struct {
	e             *env
	warm, measure int
	def           destset.SweepDef
	plan          *destset.SweepPlan
	sinkPath      string
}

// timingSims are the twelve Figure 7/8 configurations. Each label names
// its CPU model, so the two figures' cells stay distinct in one plan.
func timingSims() []destset.SimSpec {
	var out []destset.SimSpec
	for _, cpu := range []destset.CPUModel{destset.SimpleCPU, destset.DetailedCPU} {
		for _, s := range experiments.TimingSpecs(cpu) {
			s.Label = cpu.String() + "/" + s.DisplayLabel()
			out = append(out, s)
		}
	}
	return out
}

func newFig7(e *env) (workloadRun, error) {
	warm, measure, seeds := 20_000, 20_000, 2
	if e.o.tiny {
		warm, measure, seeds = 1000, 1000, 1
	}
	def := destset.NewTimingSweepDef(timingSims(), paperWorkloads(warm, measure), destset.WithSeeds(e.seeds(seeds)...))
	plan, err := def.Plan()
	if err != nil {
		return nil, err
	}
	return &fig7{e: e, warm: warm, measure: measure, def: def, plan: plan,
		sinkPath: filepath.Join(e.dir, "fig7.jsonl")}, nil
}

func (f *fig7) setup() error {
	destset.PurgeDatasets()
	if err := destset.SetDatasetDir(""); err != nil {
		return err
	}
	return prewarm(f.def)
}

func (f *fig7) pass(tr *tracer) (passOut, error) {
	file, err := os.Create(f.sinkPath)
	if err != nil {
		return passOut{}, err
	}
	sink := destset.NewJSONLObserver(file)
	var results []destset.TimingResult
	if tr == nil {
		var r *destset.TimingRunner
		r, err = f.def.TimingRunner(destset.WithParallelism(inFlight), destset.WithTimingObserver(sink.ObserveTiming))
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
func (f *fig7) tracedPass(tr *tracer, sink *destset.JSONLObserver) ([]destset.TimingResult, error) {
	pass := tr.begin("pass", 0, -1)
	defer tr.end(pass)
	var mu sync.Mutex
	return singleCells(tr, pass, f.plan.Len(), func(slot, i int, enc *encAcc) (destset.TimingResult, error) {
		def := f.def
		def.Sims = tracedSims(f.def.Sims, slot)
		r, err := def.TimingRunner(destset.WithParallelism(1), destset.WithCells([]int{i}),
			destset.WithTimingObserver(func(o destset.TimingObservation) { enc.time(&mu, func() { sink.ObserveTiming(o) }) }))
		if err != nil {
			return destset.TimingResult{}, err
		}
		return only(r.Run(context.Background()))
	})
}

func (f *fig7) verify(outs []passOut) verdict {
	var v verdict
	var first map[string]string
	for p, o := range outs {
		results := o.out.([]destset.TimingResult)
		v.attempted += f.plan.Len()
		if len(results) != f.plan.Len() {
			v.fail(f.plan.Len(), "pass %d delivered %d of %d cells", p, len(results), f.plan.Len())
			continue
		}
		got := make(map[string]string, len(results))
		for _, r := range results {
			got[cellKey(r.Sim, r.Workload, r.Seed)] = digest(r.Result)
		}
		if p == 0 {
			first = got
			v.digests = got
			v.checkReference(f.e.o, "fig7-timing", got)
		} else {
			v.checkSame(p, first, got)
		}
	}
	return v
}

// table2 takes the simple-CPU directory cells' indirection percentages.
func (f *fig7) table2(outs []passOut) float64 {
	dir := destset.SimpleCPU.String() + "/" + destset.ProtocolDirectory
	measured := map[string][]float64{}
	for _, r := range outs[0].out.([]destset.TimingResult) {
		if r.Sim == dir {
			measured[r.Workload] = append(measured[r.Workload], r.Result.IndirectionPercent())
		}
	}
	return table2Error(measured)
}
