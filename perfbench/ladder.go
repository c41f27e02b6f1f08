package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"destset"
	"destset/internal/coherence"
	"destset/internal/dataset"
	"destset/internal/ingest"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/trace"
	"destset/internal/workload"
)

// perLayer lists every per-layer metric of the traced run with its unit,
// in the order of BENCHMARK.json.
var perLayer = []struct{ name, unit string }{
	{"workload.new_ms", "ms"},
	{"workload.generate_ns_per_miss", "ns/miss"},
	{"coherence.apply_ns_per_miss", "ns/miss"},
	{"coherence.alloc_b_per_miss", "B/miss"},
	{"dataset.replay_ns_per_miss", "ns/miss"},
	{"dataset.spill_ns_per_miss", "ns/miss"},
	{"dataset.load_mmap_ns_per_miss", "ns/miss"},
	{"dataset.load_copy_ns_per_miss", "ns/miss"},
	{"predictor.new_bank_us", "us"},
	{"predictor.new_bank_kb", "KB"},
	{"predictor.predict_ns", "ns/call"},
	{"predictor.train_ns", "ns/call"},
	{"predictor.calls_per_miss", "calls/miss"},
	{"predictor.sufficient_pct", "%"},
	{"protocol.snooping_ns_per_miss", "ns/miss"},
	{"protocol.directory_ns_per_miss", "ns/miss"},
	{"protocol.multicast_ns_per_miss", "ns/miss"},
	{"sim.setup_ms", "ms/cell"},
	{"sim.setup_mb", "MB/cell"},
	{"sim.ns_per_miss", "ns/miss"},
	{"sim.alloc_b_per_miss", "B/miss"},
	{"sweep.cell_ms_p50", "ms"},
	{"sweep.cell_ms_p90", "ms"},
	{"sweep.cells", "count"},
	{"sweep.prewarm_ms", "ms"},
	{"jsonl.encode_ns_per_obs", "ns/obs"},
	{"jsonl.bytes_per_obs", "B/obs"},
	{"jsonl.merge_ns_per_record", "ns/record"},
	{"results.put_us_per_cell", "us/cell"},
	{"results.get_us_per_cell", "us/cell"},
	{"results.hit_pct", "%"},
	{"distrib.lease_us_p50", "us"},
	{"distrib.lease_us_p90", "us"},
	{"distrib.complete_us_p50", "us"},
	{"distrib.complete_us_p90", "us"},
	{"distrib.requests_per_cell", "requests/cell"},
	{"distrib.lease_grant_pct", "%"},
	{"distrib.merge_ms", "ms"},
	{"distrib.state_kb_per_cell", "KB/cell"},
	{"ingest.import_ns_per_line", "ns/line"},
	{"trace.overhead_pct", "%"},
	{"ladder.residual_pct", "%"},
}

// ladder times the layers on a workload's own inputs for the traced
// run and keeps the per-miss costs the budget adds up.
type ladder struct {
	e   *env
	tr  *tracer
	res *result

	// Per-miss costs in ns, kept for the budget.
	replay, snoop, dir, mcast, pred float64
	generate, spill, loadMmap       float64
	simSelf, simPred                float64
	// Per-cell or per-call costs in ns.
	newBank, simSetup, encode float64
	put, get                  float64
	// Per-lease costs in ns (distributed runs).
	leaseNs, completeNs, otherNs, mergeNs float64
	// lookups and hits count result-store lookups across the run.
	lookups, hits uint64
}

func newLadder(e *env, res *result) *ladder { return &ladder{e: e, tr: e.tr, res: res} }

// set records a per-layer metric.
func (l *ladder) set(name string, v float64) {
	for _, m := range perLayer {
		if m.name == name {
			l.res.set(name, v, m.unit)
			return
		}
	}
	panic("perfbench: unlisted per-layer metric " + name)
}

// complete checks that every per-layer metric was reported.
func (l *ladder) complete() error {
	for _, m := range perLayer {
		if _, ok := l.res.metrics[m.name]; !ok {
			return fmt.Errorf("traced run did not report %s", m.name)
		}
	}
	return nil
}

// clocked runs fn and returns its wall time and heap allocation.
func clocked(fn func() error) (time.Duration, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return d, after.TotalAlloc - before.TotalAlloc, err
}

// timed runs fn as a span named name and returns its duration.
func (l *ladder) timed(name string, fn func() error) (time.Duration, uint64, error) {
	start := time.Now()
	d, alloc, err := clocked(fn)
	l.tr.record(name, 0, -1, start, d)
	return d, alloc, err
}

// cellSamples takes the per-cell latencies of the traced passes.
func (l *ladder) cellSamples(tr *tracer) {
	var ms []float64
	for _, s := range tr.named("sweep.cell") {
		ms = append(ms, float64(s.End-s.Start)/1e6)
	}
	l.set("sweep.cells", float64(len(ms)))
	l.set("sweep.cell_ms_p50", quantile(ms, 0.5))
	l.set("sweep.cell_ms_p90", quantile(ms, 0.9))
}

// generation times workload construction and miss generation (through
// the coherence oracle) for each of params at the given scale.
func (l *ladder) generation(params []workload.Params, misses int) error {
	var newNs, genNs float64
	for _, p := range params {
		var g *workload.Generator
		d, _, err := l.timed("workload.new", func() (err error) {
			g, err = workload.New(p)
			return err
		})
		if err != nil {
			return err
		}
		newNs += float64(d)
		d, _, _ = l.timed("workload.generate", func() error {
			for i := 0; i < misses; i++ {
				g.Next()
			}
			return nil
		})
		genNs += float64(d) / float64(misses)
	}
	n := float64(len(params))
	l.generate = genNs / n
	l.set("workload.new_ms", newNs/n/1e6)
	l.set("workload.generate_ns_per_miss", l.generate)
	return nil
}

// records copies a dataset's records out of its columns.
func records(ds *dataset.Dataset) []trace.Record {
	out := make([]trace.Record, ds.Len())
	for i := range out {
		out[i] = ds.RecordAt(i)
	}
	return out
}

// oracle replays a dataset's records through a fresh coherence oracle.
func (l *ladder) oracle(ds *dataset.Dataset) {
	recs := records(ds)
	cfg := coherence.DefaultConfig()
	cfg.Nodes = ds.Nodes()
	d, alloc, _ := l.timed("coherence.apply", func() error {
		sys := coherence.NewSystem(cfg)
		for _, r := range recs {
			sys.Apply(r)
		}
		return nil
	})
	l.set("coherence.apply_ns_per_miss", float64(d)/float64(len(recs)))
	l.set("coherence.alloc_b_per_miss", float64(alloc)/float64(len(recs)))
}

// replayLoop replays the dataset through fn and returns the loop time.
func replayLoop(ds *dataset.Dataset, fn func(trace.Record, coherence.MissInfo)) time.Duration {
	rp := ds.Replay()
	t0 := time.Now()
	for rp.Remaining() > 0 {
		rec, mi := rp.Next()
		fn(rec, mi)
	}
	return time.Since(t0)
}

// engines times the replay cursor, the protocol engines and (through the
// traced predictor) the predictors over one dataset. Each engine's self
// time is its loop minus the replay loop and the predictor calls.
func (l *ladder) engines(ds *dataset.Dataset) {
	n := float64(ds.Len())
	best := func(fn func() time.Duration) float64 {
		var xs []float64
		for i := 0; i < 3; i++ {
			xs = append(xs, float64(fn()))
		}
		return median(xs)
	}
	replay := best(func() time.Duration { return replayLoop(ds, func(trace.Record, coherence.MissInfo) {}) })
	l.tr.record("dataset.replay", 0, -1, time.Now(), time.Duration(replay))
	l.replay = replay / n
	l.set("dataset.replay_ns_per_miss", l.replay)

	for _, e := range []struct {
		name string
		eng  func() protocol.Engine
		out  *float64
	}{
		{"protocol.snooping", func() protocol.Engine { return protocol.NewSnooping(ds.Nodes()) }, &l.snoop},
		{"protocol.directory", func() protocol.Engine { return protocol.NewDirectory() }, &l.dir},
	} {
		d := best(func() time.Duration {
			eng := e.eng()
			return replayLoop(ds, func(r trace.Record, mi coherence.MissInfo) { eng.Process(r, mi) })
		})
		l.tr.record(e.name, 0, -1, time.Now(), time.Duration(d))
		*e.out = (d - replay) / n
	}
	l.set("protocol.snooping_ns_per_miss", l.snoop)
	l.set("protocol.directory_ns_per_miss", l.dir)

	var self, predNs, predictNs, trainNs float64
	var total predAcc
	var suff, all uint64
	var bankNs, bankB float64
	for _, pol := range paperPolicies {
		cfg := predictor.DefaultConfig(pol, ds.Nodes())
		var bank []predictor.Predictor
		d, alloc, _ := l.timed("predictor.new_bank", func() error {
			bank = predictor.NewBank(cfg)
			return nil
		})
		runtime.KeepAlive(bank)
		bankNs += float64(d)
		bankB += float64(alloc)

		// The traced bank counts and times the predictor calls. Timing
		// calls this short serializes them with the engine around them, so
		// the predictor's share is taken from replaying the recorded calls
		// on a fresh bank, and the engine's self time is the loop over an
		// untraced bank minus the replay cursor and that share.
		acc := &predAcc{}
		var calls []predCall
		eng := protocol.NewMulticast(recordingBank(tracedBank(cfg, acc), &calls))
		start := time.Now()
		loop := replayLoop(ds, func(r trace.Record, mi coherence.MissInfo) { eng.Process(r, mi) })
		parent := l.tr.record("protocol.multicast", 0, -1, start, loop)
		l.tr.rollup("predictor.predict", parent, -1, start, start.Add(loop), acc.predictN, acc.predictNs)
		l.tr.rollup("predictor.train", parent, -1, start, start.Add(loop), acc.trainN, acc.trainNs)
		plain := best(func() time.Duration {
			eng := protocol.NewMulticast(predictor.NewBank(cfg))
			return replayLoop(ds, func(r trace.Record, mi coherence.MissInfo) { eng.Process(r, mi) })
		})
		pred := best(func() time.Duration { return replayCalls(predictor.NewBank(cfg), calls) })
		self += (plain - replay - pred) / n
		predNs += pred / n
		// Split the predictor's time between predict and train calls in
		// the proportion the traced calls measured.
		busyPredict := float64(acc.predictNs) - float64(acc.predictN)*l.tr.clockNs
		busyTrain := float64(acc.trainNs) - float64(acc.trainN)*l.tr.clockNs
		predictNs += pred * busyPredict / (busyPredict + busyTrain)
		trainNs += pred * busyTrain / (busyPredict + busyTrain)
		total.add(*acc)
		st := eng.Stats()
		suff += st.Sufficient
		all += st.Sufficient + st.Insufficient
	}
	np := float64(len(paperPolicies))
	l.mcast = self / np
	l.pred = predNs / np
	l.newBank = bankNs / np
	l.set("protocol.multicast_ns_per_miss", l.mcast)
	l.set("predictor.new_bank_us", bankNs/np/1e3)
	l.set("predictor.new_bank_kb", bankB/np/1024)
	l.set("predictor.predict_ns", predictNs/float64(total.predictN))
	l.set("predictor.train_ns", trainNs/float64(total.trainN))
	l.set("predictor.calls_per_miss", float64(total.predictN+total.trainN)/(n*np))
	l.set("predictor.sufficient_pct", 100*float64(suff)/float64(all))
}

// predCall is one recorded predictor call, packed small so replaying a
// log of them streams little memory: the node whose predictor was
// called, the method, and the argument's fields.
type predCall struct {
	addr trace.Addr
	pc   trace.PC
	set  nodeset.Set // a retry's needed set
	node nodeset.NodeID
	kind uint8
	// who is the query's or external request's requester, or the
	// response's responder; home is the query's home.
	who, home nodeset.NodeID
	k         trace.Kind
	mem       bool
}

const (
	callPredict uint8 = iota
	callResponse
	callExternal
	callRetry
)

// recorder logs every call into the predictor it wraps.
type recorder struct {
	predictor.Predictor
	node nodeset.NodeID
	log  *[]predCall
}

func (r *recorder) Predict(q predictor.Query) nodeset.Set {
	*r.log = append(*r.log, predCall{addr: q.Addr, pc: q.PC, node: r.node, kind: callPredict, who: q.Requester, home: q.Home, k: q.Kind})
	return r.Predictor.Predict(q)
}

func (r *recorder) TrainResponse(ev predictor.Response) {
	*r.log = append(*r.log, predCall{addr: ev.Addr, pc: ev.PC, node: r.node, kind: callResponse, who: ev.Responder, mem: ev.FromMemory})
	r.Predictor.TrainResponse(ev)
}

func (r *recorder) TrainRequest(ev predictor.External) {
	*r.log = append(*r.log, predCall{addr: ev.Addr, pc: ev.PC, node: r.node, kind: callExternal, who: ev.Requester, k: ev.Kind})
	r.Predictor.TrainRequest(ev)
}

func (r *recorder) TrainRetry(ev predictor.Retry) {
	*r.log = append(*r.log, predCall{addr: ev.Addr, pc: ev.PC, set: ev.Needed, node: r.node, kind: callRetry})
	r.Predictor.TrainRetry(ev)
}

// recordingBank wraps every predictor of a bank in a recorder.
func recordingBank(bank []predictor.Predictor, log *[]predCall) []predictor.Predictor {
	out := make([]predictor.Predictor, len(bank))
	for i, p := range bank {
		out[i] = &recorder{Predictor: p, node: nodeset.NodeID(i), log: log}
	}
	return out
}

// replayCalls makes the recorded calls on a bank and returns the time.
func replayCalls(bank []predictor.Predictor, calls []predCall) time.Duration {
	t0 := time.Now()
	for i := range calls {
		c := &calls[i]
		switch p := bank[c.node]; c.kind {
		case callPredict:
			p.Predict(predictor.Query{Addr: c.addr, PC: c.pc, Requester: c.who, Home: c.home, Kind: c.k})
		case callResponse:
			p.TrainResponse(predictor.Response{Addr: c.addr, PC: c.pc, Responder: c.who, FromMemory: c.mem})
		case callExternal:
			p.TrainRequest(predictor.External{Addr: c.addr, PC: c.pc, Requester: c.who, Kind: c.k})
		case callRetry:
			p.TrainRetry(predictor.Retry{Addr: c.addr, PC: c.pc, Needed: c.set})
		}
	}
	return time.Since(t0)
}

// disk times writing the dataset file and cold loads of it into fresh
// stores, by mmap and by copy (each including the CRC check).
func (l *ladder) disk(ds *dataset.Dataset) error {
	dir, err := l.e.fresh("ladder-disk")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	n := float64(ds.Len())
	key := dataset.KeyOf(ds.Params(), ds.Warm(), ds.Measure())
	d, _, err := l.timed("dataset.spill", func() error { return dataset.WriteFile(key.Path(dir), ds) })
	if err != nil {
		return err
	}
	l.spill = float64(d) / n
	l.set("dataset.spill_ns_per_miss", l.spill)
	for _, mmap := range []bool{true, false} {
		st := dataset.NewStore()
		if err := st.SetDir(dir); err != nil {
			return err
		}
		st.SetMmap(mmap)
		name := map[bool]string{true: "dataset.load_mmap", false: "dataset.load_copy"}[mmap]
		d, _, err := l.timed(name, func() error {
			_, err := st.Get(key, func() (*dataset.Dataset, error) {
				return nil, errors.New("dataset missing from the disk tier")
			})
			return err
		})
		if err != nil {
			return err
		}
		if mmap {
			l.loadMmap = float64(d) / n
		}
		l.set(name+"_ns_per_miss", float64(d)/n)
	}
	return nil
}

// simulate times the timing simulator per cell on one dataset for each
// sim spec: a run whose timed region is a single record is the per-cell
// set-up (construction and warm-up); the full run minus it is the event
// loop. Predictor time is taken out of the loop's self time.
func (l *ladder) simulate(ds *dataset.Dataset, sims []destset.SimSpec) error {
	if err := registerTracedPolicies(); err != nil {
		return err
	}
	sims = tracedSims(sims, 0)
	measure := float64(ds.Measure())
	var setupNs, setupB, selfNs, allocB, predNs float64
	for _, s := range sims {
		cfg, err := s.Resolve(ds.Nodes())
		if err != nil {
			return err
		}
		// Each run is the median of three after one discarded run, which
		// leaves the heap as a sweep's earlier cells would.
		run := func(timed destset.SimSource) (simRun, error) {
			runs := make([]simRun, 4)
			for i := range runs {
				acc := &predAcc{}
				slotAcc[0].Store(acc)
				d, alloc, err := l.timed("sim.cell", func() error {
					_, err := destset.SimulateTiming(context.Background(), cfg, ds.WarmRegion(), timed)
					return err
				})
				if err != nil {
					return simRun{}, err
				}
				runs[i] = simRun{d, alloc, *acc}
			}
			runs = runs[1:]
			sort.Slice(runs, func(a, b int) bool { return runs[a].d < runs[b].d })
			return runs[1], nil
		}
		r0, err := run(prefixSource{ds.MeasureRegion(), 1})
		if err != nil {
			return err
		}
		r1, err := run(ds.MeasureRegion())
		if err != nil {
			return err
		}
		d0, a0, p0 := r0.d, r0.alloc, r0.pred
		d1, a1, p1 := r1.d, r1.alloc, r1.pred
		wall := func(p predAcc) float64 {
			calls := float64(p.predictN + p.trainN)
			return float64(p.predictNs+p.trainNs) + calls*(l.tr.nestNs-l.tr.clockNs)
		}
		setupNs += float64(d0)
		setupB += float64(a0)
		pred := wall(p1) - wall(p0)
		selfNs += (float64(d1-d0) - pred) / measure
		predNs += pred / measure
		allocB += float64(a1-a0) / measure
	}
	n := float64(len(sims))
	l.simSetup = setupNs / n
	l.simSelf = selfNs / n
	l.simPred = predNs / n
	l.set("sim.setup_ms", setupNs/n/1e6)
	l.set("sim.setup_mb", setupB/n/(1<<20))
	l.set("sim.ns_per_miss", l.simSelf)
	l.set("sim.alloc_b_per_miss", allocB/n)
	return nil
}

// simRun is one timed simulation.
type simRun struct {
	d     time.Duration
	alloc uint64
	pred  predAcc
}

// prefixSource is the first n records of a source.
type prefixSource struct {
	destset.SimSource
	n int
}

func (p prefixSource) Len() int { return p.n }

// output times the JSONL sink, the streaming merge and the result store
// over a sweep's reference output (def run in-process at parallelism 1).
func (l *ladder) output(def destset.SweepDef) error {
	plan, err := def.Plan()
	if err != nil {
		return err
	}
	ref, err := localJSONL(def)
	if err != nil {
		return err
	}
	lines, err := planLines(plan, ref)
	if err != nil {
		return err
	}

	// Encoding: decode the records and re-encode them through a sink.
	cw := &countingWriter{w: io.Discard}
	sink := destset.NewJSONLObserver(cw)
	var encode func() error
	if def.Kind == destset.PlanKindTiming {
		obs := make([]destset.TimingObservation, len(lines))
		for i, pl := range lines {
			if err := json.Unmarshal(pl.line, &obs[i]); err != nil {
				return err
			}
		}
		encode = func() error {
			for _, o := range obs {
				sink.ObserveTiming(o)
			}
			return sink.Flush()
		}
	} else {
		obs := make([]destset.Observation, len(lines))
		for i, pl := range lines {
			if err := json.Unmarshal(pl.line, &obs[i]); err != nil {
				return err
			}
		}
		encode = func() error {
			for _, o := range obs {
				sink.Observe(o)
			}
			return sink.Flush()
		}
	}
	d, _, err := l.timed("jsonl.encode", encode)
	if err != nil {
		return err
	}
	nrec := float64(len(lines))
	l.encode = float64(d) / nrec
	l.set("jsonl.encode_ns_per_obs", l.encode)
	l.set("jsonl.bytes_per_obs", float64(cw.n)/nrec)

	// Merge: two plan-ordered parts, as round-robin shards write them.
	var parts [2]bytes.Buffer
	for _, pl := range lines {
		parts[pl.cell%2].Write(pl.line)
		parts[pl.cell%2].WriteByte('\n')
	}
	var merged bytes.Buffer
	d, _, err = l.timed("jsonl.merge", func() error {
		return plan.MergeStreams(&merged, bytes.NewReader(parts[0].Bytes()), bytes.NewReader(parts[1].Bytes()))
	})
	if err != nil {
		return err
	}
	if !bytes.Equal(merged.Bytes(), ref) {
		return errors.New("merged parts differ from the in-process run")
	}
	l.set("jsonl.merge_ns_per_record", float64(d)/nrec)

	// Result store: put every cell into a fresh store, then read it back
	// from the disk tier of another fresh store.
	byCell := map[int][][]byte{}
	for _, pl := range lines {
		byCell[pl.cell] = append(byCell[pl.cell], pl.line)
	}
	dir, err := l.e.fresh("ladder-results")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cells := make([]int, 0, len(byCell))
	for c := range byCell {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	put := destset.NewResultStore()
	if err := put.SetDir(dir); err != nil {
		return err
	}
	d, _, err = l.timed("results.put", func() error {
		for _, c := range cells {
			if err := put.StoreCellLines(def.Kind, plan.Cell(c).Fingerprint, byCell[c]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put = float64(d) / float64(len(cells))
	l.set("results.put_us_per_cell", l.put/1e3)
	get := destset.NewResultStore()
	if err := get.SetDir(dir); err != nil {
		return err
	}
	d, _, err = l.timed("results.get", func() error {
		for _, c := range cells {
			if _, ok := get.CellLines(def.Kind, plan.Cell(c).Fingerprint); !ok {
				return fmt.Errorf("result store lost cell %d", c)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.get = float64(d) / float64(len(cells))
	l.set("results.get_us_per_cell", l.get/1e3)
	l.lookup(get.Stats())
	return nil
}

// lookup adds a result store's lookups to results.hit_pct.
func (l *ladder) lookup(st destset.ResultStats) {
	l.lookups += st.MemHits + st.MemMisses
	l.hits += st.MemHits + st.DiskHits
}

// importer times importing the dataset's CSV export.
func (l *ladder) importer(ds *dataset.Dataset) error {
	var csv bytes.Buffer
	if err := ingest.Export(&csv, ds, ingest.FormatCSV); err != nil {
		return err
	}
	lines := bytes.Count(csv.Bytes(), []byte("\n"))
	d, _, err := l.timed("ingest.import", func() error {
		_, err := ingest.Import(bytes.NewReader(csv.Bytes()), ingest.FormatCSV,
			ingest.Options{Nodes: ds.Nodes(), Warm: ds.Warm()})
		return err
	})
	if err != nil {
		return err
	}
	l.set("ingest.import_ns_per_line", float64(d)/float64(lines))
	return nil
}

// prewarmed times resolving every dataset of def through the shared
// store in its current state.
func (l *ladder) prewarmed(def destset.SweepDef) error {
	d, _, err := l.timed("sweep.prewarm", func() error { return prewarm(def) })
	l.set("sweep.prewarm_ms", float64(d)/1e6)
	return err
}

// distributed takes the coordinator round trips the transport timed
// over cells distributed cells.
func (l *ladder) distributed(tt *tracedTransport, cells int, merge time.Duration, stateBytes int64) {
	us := func(name string) []float64 {
		var xs []float64
		for _, s := range l.tr.named(name) {
			xs = append(xs, float64(s.End-s.Start)/1e3)
		}
		return xs
	}
	lease, complete := us("distrib.lease"), us("distrib.complete")
	l.set("distrib.lease_us_p50", quantile(lease, 0.5))
	l.set("distrib.lease_us_p90", quantile(lease, 0.9))
	l.set("distrib.complete_us_p50", quantile(complete, 0.5))
	l.set("distrib.complete_us_p90", quantile(complete, 0.9))
	l.set("distrib.requests_per_cell", float64(tt.requests)/float64(cells))
	l.set("distrib.lease_grant_pct", 100*float64(tt.grants)/float64(tt.leases))
	l.set("distrib.merge_ms", float64(merge)/1e6)
	l.set("distrib.state_kb_per_cell", float64(stateBytes)/1024/float64(cells))
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s * 1e3
	}
	other, _ := l.tr.selfNs("distrib.request")
	l.leaseNs = sum(lease) / float64(cells)
	l.completeNs = sum(complete) / float64(cells)
	l.otherNs = float64(other) / float64(cells)
	l.mergeNs = float64(merge) / float64(cells)
}

// fleetProbe runs def through a coordinator and two workers with timed
// round trips, and checks the merged output against the in-process run.
func (l *ladder) fleetProbe(def destset.SweepDef) error {
	plan, err := def.Plan()
	if err != nil {
		return err
	}
	tt := &tracedTransport{tr: l.tr, parent: l.tr.begin("distrib.probe", 0, -1), leaseLo: map[string]int{}}
	f, err := runFleet(l.e, def, "", tt)
	l.tr.end(tt.parent)
	if err != nil {
		return err
	}
	want, err := localJSONL(def)
	if err != nil {
		return err
	}
	if !bytes.Equal(f.merged, want) {
		return errors.New("distributed probe output differs from the in-process run")
	}
	l.distributed(tt, plan.Len(), f.merge, f.stateBytes)
	return nil
}

// finishHits reports results.hit_pct.
func (l *ladder) finishHits() {
	pct := 0.0
	if l.lookups > 0 {
		pct = 100 * float64(l.hits) / float64(l.lookups)
	}
	l.set("results.hit_pct", pct)
}

// common runs the probes every workload shares, on its own inputs: the
// workload presets its datasets come from, a representative dataset,
// the sim specs and a sweep definition for the output layers.
func (l *ladder) common(params []workload.Params, ds *dataset.Dataset, sims []destset.SimSpec, out destset.SweepDef) error {
	if err := l.generation(params, ds.Len()); err != nil {
		return err
	}
	l.oracle(ds)
	l.engines(ds)
	if err := l.disk(ds); err != nil {
		return err
	}
	if err := l.simulate(ds, sims); err != nil {
		return err
	}
	if err := l.output(out); err != nil {
		return err
	}
	return l.importer(ds)
}

// budget is the per-miss budget: each layer's cost per delivered miss,
// which should add up to the end-to-end cost.
type budget struct {
	rows []budgetRow
}

type budgetRow struct {
	layer string
	ns    float64
}

func (b *budget) add(layer string, ns float64) { b.rows = append(b.rows, budgetRow{layer, ns}) }

func (b *budget) sum() float64 {
	var s float64
	for _, r := range b.rows {
		s += r.ns
	}
	return s
}

// residualPct is the share of the end-to-end cost no layer accounts for.
func (b *budget) residualPct(endToEnd float64) float64 {
	return 100 * (endToEnd - b.sum()) / endToEnd
}

func (b *budget) print(w io.Writer, name string, endToEnd float64) {
	fmt.Fprintf(w, "per-miss budget, %s (ns per delivered miss, one of %d cells in flight):\n", name, inFlight)
	for _, r := range b.rows {
		fmt.Fprintf(w, "  %-28s %10.1f\n", r.layer, r.ns)
	}
	fmt.Fprintf(w, "  %-28s %10.1f\n  %-28s %10.1f\n  %-28s %10.1f\n", "sum of layers", b.sum(),
		"end to end", endToEnd, "residual", endToEnd-b.sum())
}

// presets returns the named presets at one seed.
func presets(names []string, seed uint64) ([]workload.Params, error) {
	out := make([]workload.Params, len(names))
	for i, n := range names {
		p, err := workload.Preset(n, seed)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// sharedDataset resolves one paper workload's dataset at a scale.
func sharedDataset(name string, seed uint64, warm, measure int) (*dataset.Dataset, error) {
	p, err := workload.Preset(name, seed)
	if err != nil {
		return nil, err
	}
	return dataset.GetShared(p, warm, measure)
}
