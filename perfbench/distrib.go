package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"destset"
	"destset/internal/dataset"
	"destset/internal/distrib"
	"destset/internal/ingest"
	"destset/internal/workload"
)

// distribSweep is a coordinator and two workers in one process: the
// coordinator (WAL and spill on, result store armed) leases single cells
// to two parallelism-1 workers over in-memory HTTP. The sweep is many
// small cells replaying one CSV trace the benchmark generates from its
// seed; imported traces are seed-invariant, so the seed axis adds cells
// without adding datasets.
type distribSweep struct {
	e     *env
	csv   []byte
	seeds []uint64
	warm  int
	dsDir string
	def   destset.SweepDef
	plan  *destset.SweepPlan
	// imported is the dataset the last setup imported.
	imported *dataset.Dataset
	// traced collects the traced passes' coordinator round trips.
	traced []fleetTrace
}

// fleetTrace is one traced distributed pass.
type fleetTrace struct {
	requests, leases, grants int
	merge                    time.Duration
	stateBytes               int64
	results                  destset.ResultStats
}

// csvSource is the paper workload whose miss stream the CSV trace
// exports.
const csvSource = "oltp"

func newDistribSweep(e *env) (workloadRun, error) {
	warm, measure, seeds := 2000, 6000, 50
	if e.o.tiny {
		warm, measure, seeds = 300, 300, 3
	}
	// The input: the csvSource miss stream at the run seed, as CSV.
	p, err := workload.Preset(csvSource, e.o.seed)
	if err != nil {
		return nil, err
	}
	src, err := dataset.Generate(p, warm, measure)
	if err != nil {
		return nil, err
	}
	var csv bytes.Buffer
	if err := ingest.Export(&csv, src, ingest.FormatCSV); err != nil {
		return nil, err
	}
	return &distribSweep{e: e, csv: csv.Bytes(), seeds: e.seeds(seeds), warm: warm}, nil
}

// setup imports the CSV trace, installs it in a fresh dataset directory
// and loads it into an empty memory tier.
func (d *distribSweep) setup() error {
	destset.PurgeDatasets()
	dir, err := d.e.fresh("datasets")
	if err != nil {
		return err
	}
	if err := destset.SetDatasetDir(dir); err != nil {
		return err
	}
	id := d.e.tr.begin("ingest.import", 0, -1)
	ds, err := ingest.Import(bytes.NewReader(d.csv), ingest.FormatCSV, ingest.Options{Name: csvSource + "-csv", Nodes: 16, Warm: d.warm})
	d.e.tr.end(id)
	if err != nil {
		return err
	}
	p := ds.Params()
	if err := dataset.WriteFile(dataset.KeyOf(p, ds.Warm(), ds.Measure()).Path(dir), ds); err != nil {
		return err
	}
	d.def = destset.NewTraceSweepDef(fig5Engines(),
		[]destset.WorkloadSpec{{Name: p.Name, Params: &p, Warm: ds.Warm(), Measure: ds.Measure()}},
		destset.WithSeeds(d.seeds...))
	if d.plan, err = d.def.Plan(); err != nil {
		return err
	}
	d.dsDir, d.imported = dir, ds
	return prewarm(d.def)
}

// distribOut is one pass's raw output.
type distribOut struct {
	merged []byte
	sum    [32]byte
}

func (d *distribSweep) pass(tr *tracer) (passOut, error) {
	var tt *tracedTransport
	if tr != nil {
		tt = &tracedTransport{tr: tr, parent: tr.begin("pass", 0, -1), leaseLo: map[string]int{}}
		defer tr.end(tt.parent)
	}
	f, err := runFleet(d.e, d.def, d.dsDir, tt)
	if err != nil {
		return passOut{}, err
	}
	if tt != nil {
		d.traced = append(d.traced, fleetTrace{tt.requests, tt.leases, tt.grants, f.merge, f.stateBytes, f.results})
	}
	cells := d.plan.Len()
	return passOut{
		cells:  cells,
		misses: int64(cells) * int64(d.imported.Len()),
		out:    distribOut{merged: f.merged, sum: sha256.Sum256(f.merged)},
	}, nil
}

// fleet is one distributed run's outcome.
type fleet struct {
	merged     []byte
	merge      time.Duration
	stateBytes int64
	results    destset.ResultStats
}

// runFleet runs def through a coordinator with a state dir (WAL and
// spill files on disk) and a memory-tier result store, serving two parallelism-1 workers over in-memory HTTP with
// chunk 1, and returns the merged output. A non-nil tt times the
// workers' round trips.
func runFleet(e *env, def destset.SweepDef, datasetDir string, tt *tracedTransport) (fleet, error) {
	stateDir, err := e.fresh("state")
	if err != nil {
		return fleet{}, err
	}
	store := destset.NewResultStore()
	coord, err := distrib.NewCoordinator(distrib.Config{
		Def:        def,
		ChunkSize:  1,
		LeaseTTL:   10 * time.Minute, // no lease may expire on a loaded host
		StateDir:   filepath.Join(stateDir, "coord"),
		DatasetDir: datasetDir,
		Results:    store,
	})
	if err != nil {
		return fleet{}, err
	}
	defer coord.Close()
	l := distrib.NewMemListener()
	srv := &http.Server{Handler: distrib.NewHandler(coord)}
	served := make(chan struct{})
	go func() {
		srv.Serve(l)
		close(served)
	}()
	defer func() {
		srv.Close()
		l.Close()
		<-served
	}()
	client := l.Client()
	defer client.CloseIdleConnections()
	if tt != nil {
		tt.inner = client.Transport
		client = &http.Client{Transport: tt}
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, inFlight)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = distrib.RunWorker(ctx, distrib.WorkerConfig{
				URL:          "http://coordinator",
				Client:       client,
				Name:         fmt.Sprintf("w%d", i),
				Parallelism:  1,
				PollInterval: time.Millisecond, // no worker may sit idle while cells remain
				NoPeer:       true,
			})
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fleet{}, err
	}
	if err := coord.Wait(ctx); err != nil {
		return fleet{}, err
	}
	// The state dir stays until the run's scratch directory is removed,
	// so deleting it does not load the disk while later passes are timed.
	var f fleet
	var buf bytes.Buffer
	t0 := time.Now()
	id := e.tr.begin("distrib.merge", 0, -1)
	err = coord.WriteMerged(&buf)
	e.tr.end(id)
	f.merge = time.Since(t0)
	f.merged = buf.Bytes()
	f.stateBytes = dirBytes(stateDir)
	f.results = store.Stats()
	return f, err
}

// localJSONL runs def in one process at parallelism 1 — the reference
// stream a distributed run must reproduce byte for byte.
func localJSONL(def destset.SweepDef) ([]byte, error) {
	plan, err := def.Plan()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	sink := destset.NewJSONLObserver(&buf)
	if err := sink.WriteManifest(plan.Manifest(0, 1)); err != nil {
		return nil, err
	}
	opts := []destset.RunnerOption{destset.WithParallelism(1)}
	if def.Kind == destset.PlanKindTiming {
		r, err := def.TimingRunner(append(opts, destset.WithTimingObserver(sink.ObserveTiming))...)
		if err != nil {
			return nil, err
		}
		if _, err := r.Run(context.Background()); err != nil {
			return nil, err
		}
	} else {
		r, err := def.Runner(append(opts, destset.WithObserver(sink.Observe))...)
		if err != nil {
			return nil, err
		}
		if _, err := r.Run(context.Background()); err != nil {
			return nil, err
		}
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (d *distribSweep) verify(outs []passOut) verdict {
	var v verdict
	cells := d.plan.Len()
	want, err := localJSONL(d.def)
	if err != nil {
		v.attempted = cells * len(outs)
		v.fail(v.attempted, "in-process reference run: %v", err)
		return v
	}
	wantLines, err := planLines(d.plan, want)
	if err != nil {
		v.fail(cells, "in-process reference: %v", err)
	}
	wantSum := sha256.Sum256(want)
	for p, o := range outs {
		out := o.out.(distribOut)
		v.attempted += cells
		if out.sum != wantSum {
			v.fail(cells-matchingCells(d.plan, out.merged, wantLines), "pass %d: merged output differs from the in-process run at parallelism 1", p)
		}
	}
	// Seed-invariant dataset: every seed of an engine must give the
	// statistics recorded for that engine.
	got := map[string]string{}
	for _, pl := range wantLines {
		var o destset.Observation
		if err := json.Unmarshal(pl.line, &o); err != nil {
			v.fail(1, "reference record: %v", err)
			continue
		}
		k := cellKey(o.Engine, o.Workload, 0)
		dg := digest(o.Cumulative)
		if prev, ok := got[k]; ok && prev != dg {
			v.fail(1, "cell %s seed %d: digest %s differs from another seed's %s", k, o.Seed, dg, prev)
		}
		got[k] = dg
	}
	v.digests = got
	v.checkReference(d.e.o, "distrib-sweep", got)
	return v
}

// matchingCells counts the cells whose merged records equal the
// reference's.
func matchingCells(plan *destset.SweepPlan, merged []byte, want []planLine) int {
	got, err := planLines(plan, merged)
	if err != nil {
		return 0
	}
	byCell := func(ls []planLine) map[int][]byte {
		m := map[int][]byte{}
		for _, l := range ls {
			m[l.cell] = append(append(m[l.cell], l.line...), '\n')
		}
		return m
	}
	g, w := byCell(got), byCell(want)
	n := 0
	for c, lines := range w {
		if bytes.Equal(g[c], lines) {
			n++
		}
	}
	return n
}

// table2 compares the directory cells with Table 2's value for the
// workload the CSV trace exports.
func (d *distribSweep) table2(outs []passOut) float64 {
	lines, err := planLines(d.plan, outs[0].out.(distribOut).merged)
	if err != nil {
		return 0
	}
	var xs []float64
	for _, pl := range lines {
		var o destset.Observation
		if json.Unmarshal(pl.line, &o) == nil && o.Engine == destset.ProtocolDirectory {
			xs = append(xs, o.Cumulative.IndirectionPercent())
		}
	}
	return table2Error(map[string][]float64{csvSource: xs})
}
