package main

import (
	"context"
	"time"

	"destset"
	"destset/internal/dataset"
	"destset/internal/workload"
)

// Each workload's probes time every layer on the workload's own inputs:
// its workload presets and seed, a representative dataset (the paper's
// OLTP workload, which Figure 6 studies), its sweep definition, and for
// the layers its passes reach, the spans those passes recorded. Its
// budget then adds up the layers its passes run, per delivered miss.

// probeWorkload is the representative workload of the probes.
const probeWorkload = "oltp"

// firstSeed narrows a sweep definition to its first seed.
func firstSeed(def destset.SweepDef) destset.SweepDef {
	def.Seeds = def.Seeds[:1]
	return def
}

func (f *fig5) probe(l *ladder) error {
	seed := f.def.Seeds[0]
	params, err := presets(workload.PaperNames(), seed)
	if err != nil {
		return err
	}
	ds, err := sharedDataset(probeWorkload, seed, f.warm, f.measure)
	if err != nil {
		return err
	}
	if err := l.common(params, ds, timingSims()[:6], firstSeed(f.def)); err != nil {
		return err
	}
	if err := l.prewarmed(f.def); err != nil {
		return err
	}
	if err := l.fleetProbe(firstSeed(f.def)); err != nil {
		return err
	}
	l.finishHits()
	return nil
}

// multicastShare is the share of Figure 5's six engines that predict.
const multicastShare = 4.0 / 6

func (f *fig5) budget(l *ladder, b *budget) {
	n := float64(f.warm + f.measure)
	b.add("dataset.replay", l.replay)
	b.add("protocol (mean of 6 engines)", (l.snoop+l.dir+4*l.mcast)/6)
	b.add("predictor", multicastShare*l.pred)
	b.add("predictor.new_bank", multicastShare*l.newBank/n)
	b.add("jsonl.encode", l.encode*float64(f.measure/f.def.Interval)/n)
}

func (f *fig7) probe(l *ladder) error {
	seed := f.def.Seeds[0]
	params, err := presets(workload.PaperNames(), seed)
	if err != nil {
		return err
	}
	ds, err := sharedDataset(probeWorkload, seed, f.warm, f.measure)
	if err != nil {
		return err
	}
	// The output and distributed probes take the probe workload's
	// twelve cells.
	small := firstSeed(f.def)
	small.Workloads = []destset.WorkloadSpec{{Name: probeWorkload, Warm: f.warm, Measure: f.measure}}
	if err := l.common(params, ds, timingSims(), small); err != nil {
		return err
	}
	if err := l.prewarmed(f.def); err != nil {
		return err
	}
	if err := l.fleetProbe(small); err != nil {
		return err
	}
	l.finishHits()
	return nil
}

func (f *fig7) budget(l *ladder, b *budget) {
	n := float64(f.warm + f.measure)
	share := float64(f.measure) / n
	b.add("sim.setup (per cell)", l.simSetup/n)
	b.add("sim event loop", l.simSelf*share)
	b.add("predictor (in sim)", l.simPred*share)
	b.add("jsonl.encode (per cell)", l.encode/n)
}

func (c *coldStart) probe(l *ladder) error {
	seed := c.seeds[0]
	params, err := presets(workload.PaperNames(), seed)
	if err != nil {
		return err
	}
	ds, err := dataset.Generate(params[3], c.warm, c.measure)
	if err != nil {
		return err
	}
	if err := l.common(params, ds, timingSims()[:6], firstSeed(c.def)); err != nil {
		return err
	}
	// The timed phase starts from empty memory tiers.
	destset.PurgeDatasets()
	if err := l.prewarmed(c.def); err != nil {
		return err
	}
	if err := l.fleetProbe(firstSeed(c.def)); err != nil {
		return err
	}
	for _, st := range c.traced {
		l.lookup(st)
	}
	l.finishHits()
	return nil
}

func (c *coldStart) budget(l *ladder, b *budget) {
	cells := float64(c.plan.Len())
	n := float64(c.warm + c.measure)
	datasets := float64(len(c.seeds) * len(workload.PaperNames()))
	delivered := 2 * cells * n
	b.add("workload.generate (with oracle)", datasets*n*l.generate/delivered)
	b.add("dataset.spill", datasets*n*l.spill/delivered)
	b.add("dataset.load_mmap", datasets*n*l.loadMmap/delivered)
	b.add("replay + protocol (first run)", cells*n*(l.replay+(l.snoop+l.dir)/2)/delivered)
	b.add("results.put", cells*l.put/delivered)
	b.add("results.get", cells*l.get/delivered)
}

func (d *distribSweep) probe(l *ladder) error {
	p, err := workload.Preset(csvSource, d.e.o.seed)
	if err != nil {
		return err
	}
	if err := l.common([]workload.Params{p}, d.imported, timingSims()[:6], d.def); err != nil {
		return err
	}
	if err := l.prewarmed(d.def); err != nil {
		return err
	}
	// The passes run no single-cell runs; time the sweep's cells one by
	// one, two in flight.
	_, err = singleCells(l.tr, 0, d.plan.Len(), func(_, i int, _ *encAcc) ([]destset.RunResult, error) {
		r, err := d.def.Runner(destset.WithParallelism(1), destset.WithCells([]int{i}))
		if err != nil {
			return nil, err
		}
		return r.Run(context.Background())
	})
	if err != nil {
		return err
	}
	l.cellSamples(l.tr)
	var tt tracedTransport
	var cells int
	var merge time.Duration
	var state int64
	for _, o := range d.traced {
		tt.requests += o.requests
		tt.leases += o.leases
		tt.grants += o.grants
		cells += d.plan.Len()
		merge += o.merge
		state += o.stateBytes
		l.lookup(o.results)
	}
	passes := int64(len(d.traced))
	l.distributed(&tt, cells, merge/time.Duration(passes), state/passes)
	l.finishHits()
	return nil
}

func (d *distribSweep) budget(l *ladder, b *budget) {
	n := float64(d.imported.Len())
	b.add("dataset.replay", l.replay)
	b.add("protocol (mean of 6 engines)", (l.snoop+l.dir+4*l.mcast)/6)
	b.add("predictor", multicastShare*l.pred)
	b.add("predictor.new_bank", multicastShare*l.newBank/n)
	b.add("jsonl.encode (per cell)", l.encode/n)
	b.add("distrib.lease", l.leaseNs/n)
	b.add("distrib.complete", l.completeNs/n)
	b.add("distrib other requests", l.otherNs/n)
	b.add("distrib.merge", l.mergeNs/n)
}
