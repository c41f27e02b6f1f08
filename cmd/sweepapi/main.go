// Command sweepapi serves sweep results over HTTP, backed by the
// content-addressed result store: predictable queries are answered from
// the cheap tier (cached cells) and the expensive resource (simulation)
// is spent only on true misses — the same latency/bandwidth economics
// the paper studies, applied to the harness itself.
//
// Usage:
//
//	sweepapi [-addr host:port] [-result-dir path] [-dataset-dir path]
//	         [-result-mem bytes] [-parallel N] [-quiet]
//
// Endpoints:
//
//	GET /v1/figure?fig=5|7|8[&warm=N][&misses=N][&seed=S]
//	              [&workloads=a,b][&protocols=x,y]
//	    Maps the figure request onto the same SweepDef the CLIs build
//	    (cmd/traceeval -fig5, cmd/timing -fig7/-fig8 — identical plan
//	    fingerprints), runs it through an embedded runner attached to
//	    the result store, and streams the manifest-headed, plan-ordered
//	    JSONL observation file — byte-identical to the CLI's -json
//	    output at any -parallel, whatever mix of cached and computed
//	    cells produced it. Cells already in the store are served
//	    without computing; repeated queries cost zero simulations.
//	    X-Cached-Cells / X-Computed-Cells report the split.
//	    Concurrent identical queries (same plan fingerprint) are
//	    deduplicated by a singleflight: one runs, the rest share its
//	    bytes.
//
//	GET /v1/observations?cells=fp1,fp2,...
//	    Looks up individual cells by plan-cell fingerprint (see
//	    SweepPlan / the JSONL shard manifest "cells" list), store-only:
//	    nothing is computed. Returns each found cell's kind and raw
//	    observation records plus the list of missing fingerprints.
//
//	GET /v1/stats
//	    Result-store and dataset-store counters plus query totals —
//	    the hit-ratio dashboard.
//
// -result-dir persists the store across restarts (and shares it with
// cmd/timing/traceeval/sweepd runs pointed at the same directory);
// without it the store is memory-only and warms over the process's
// lifetime. -result-mem caps the resident memory tier (bytes, LRU).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"destset"
	"destset/internal/experiments"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:7608", "listen address")
		resultDir = flag.String("result-dir", "", "persistent on-disk result store (empty = memory-only)")
		resultMem = flag.Int64("result-mem", 0, "resident result-store byte limit (0 = unbounded)")
		dataDir   = flag.String("dataset-dir", "", "persistent on-disk dataset cache shared across processes")
		parallel  = flag.Int("parallel", 0, "max concurrent cells per computed query (0 = all CPUs)")
		quiet     = flag.Bool("quiet", false, "suppress request logging")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "sweepapi:", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		if err := destset.SetDatasetDir(*dataDir); err != nil {
			fail(err)
		}
	}
	rs := destset.NewResultStore()
	if *resultDir != "" {
		if err := rs.SetDir(*resultDir); err != nil {
			fail(err)
		}
	}
	if *resultMem > 0 {
		rs.SetLimit(*resultMem)
	}

	s := &server{
		ctx:      ctx,
		rs:       rs,
		parallel: *parallel,
		flights:  map[string]*flight{},
		logf: func(format string, args ...any) {
			if !*quiet {
				fmt.Fprintf(os.Stderr, "sweepapi: "+format+"\n", args...)
			}
		},
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "sweepapi: serving at http://%s (result dir %s)\n", l.Addr(), dirName(*resultDir))
	srv := &http.Server{Handler: s.handler()}
	go srv.Serve(l)
	<-ctx.Done()
	srv.Close()
}

func dirName(dir string) string {
	if dir == "" {
		return "<memory only>"
	}
	return dir
}

// server is the query service: a result store, an embedded runner
// budget, and a singleflight table keyed by plan fingerprint.
type server struct {
	ctx      context.Context
	rs       *destset.ResultStore
	parallel int
	logf     func(string, ...any)

	mu      sync.Mutex
	flights map[string]*flight

	// Query counters, served at /v1/stats.
	figureQueries      atomic.Uint64
	observationQueries atomic.Uint64
	cellsCached        atomic.Uint64
	cellsComputed      atomic.Uint64
}

// flight is one in-progress figure computation; concurrent identical
// queries block on done and share the reply.
type flight struct {
	done  chan struct{}
	reply *figureReply
	err   error
}

// figureReply is a completed figure query: the merged JSONL body and
// the cached/computed split that produced it.
type figureReply struct {
	plan     string
	kind     string
	cells    int
	cached   int
	computed int
	body     []byte
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/figure", s.handleFigure)
	mux.HandleFunc("GET /v1/observations", s.handleObservations)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// httpError answers one failed request with a JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// figureDef maps a figure query onto the exact SweepDef the CLIs build
// from the same flags, so the plan fingerprint — and therefore the
// result-store address space — is shared with cmd/traceeval -fig5 and
// cmd/timing -fig7/-fig8 runs.
func figureDef(q map[string]string) (destset.SweepDef, error) {
	opt := experiments.DefaultOptions()
	if v := q["seed"]; v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return destset.SweepDef{}, fmt.Errorf("bad seed %q: %w", v, err)
		}
		opt.Seed = seed
	}
	if v := q["workloads"]; v != "" {
		opt.Workloads = strings.Split(v, ",")
	}
	if v := q["protocols"]; v != "" {
		opt.Protocols = strings.Split(v, ",")
	}
	warm, misses := 0, 0
	for name, dst := range map[string]*int{"warm": &warm, "misses": &misses} {
		if v := q[name]; v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return destset.SweepDef{}, fmt.Errorf("bad %s %q", name, v)
			}
			*dst = n
		}
	}
	switch q["fig"] {
	case "5":
		if warm != 0 {
			opt.WarmMisses = warm
		}
		if misses != 0 {
			opt.Misses = misses
		}
		return experiments.TradeoffSweepDef(opt)
	case "7", "8":
		if warm != 0 {
			opt.TimedWarmMisses = warm
		}
		if misses != 0 {
			opt.TimedMisses = misses
		}
		model := destset.SimpleCPU
		if q["fig"] == "8" {
			model = destset.DetailedCPU
		}
		return experiments.TimingSweepDef(opt, model)
	}
	return destset.SweepDef{}, fmt.Errorf("fig must be 5, 7 or 8 (got %q)", q["fig"])
}

func (s *server) handleFigure(w http.ResponseWriter, r *http.Request) {
	s.figureQueries.Add(1)
	q := map[string]string{}
	for _, k := range []string{"fig", "seed", "warm", "misses", "workloads", "protocols"} {
		q[k] = r.URL.Query().Get(k)
	}
	def, err := figureDef(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	plan, err := def.Plan()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	reply, shared, err := s.figure(def, plan)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.cellsCached.Add(uint64(reply.cached))
	s.cellsComputed.Add(uint64(reply.computed))
	s.logf("figure %s: plan %s, %d cells (%d cached, %d computed, singleflight-shared %t)",
		q["fig"], reply.plan, reply.cells, reply.cached, reply.computed, shared)
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Sweep-Plan", reply.plan)
	h.Set("X-Sweep-Kind", reply.kind)
	h.Set("X-Cells", strconv.Itoa(reply.cells))
	h.Set("X-Cached-Cells", strconv.Itoa(reply.cached))
	h.Set("X-Computed-Cells", strconv.Itoa(reply.computed))
	h.Set("X-Singleflight-Shared", strconv.FormatBool(shared))
	w.Write(reply.body)
}

// figure computes (or joins) one figure query. Queries are
// singleflighted on the plan fingerprint: the first caller runs the
// sweep, concurrent identical callers share its reply, and the entry is
// dropped on completion so later queries consult the store afresh (and
// find every cell cached).
func (s *server) figure(def destset.SweepDef, plan *destset.SweepPlan) (*figureReply, bool, error) {
	key := plan.Fingerprint()
	s.mu.Lock()
	if f, ok := s.flights[key]; ok {
		s.mu.Unlock()
		<-f.done
		return f.reply, true, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	f.reply, f.err = s.runFigure(def, plan)
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
	return f.reply, false, f.err
}

// runFigure executes one figure sweep through an embedded runner
// attached to the result store and renders the manifest-headed JSONL
// body. The runners deliver observations in plan order at any
// parallelism, so the body is the runner's stream as written:
// deterministic at any -parallel and identical to a local -json run.
func (s *server) runFigure(def destset.SweepDef, plan *destset.SweepPlan) (*figureReply, error) {
	cached := 0
	for _, c := range plan.Cells() {
		if s.rs.HasCell(plan.Kind(), c.Fingerprint) {
			cached++
		}
	}
	var body bytes.Buffer
	sink := destset.NewJSONLObserver(&body)
	if err := sink.WriteManifest(plan.Manifest(0, 1)); err != nil {
		return nil, err
	}
	opts := []destset.RunnerOption{
		destset.WithResultStore(s.rs),
		destset.WithParallelism(s.parallel),
	}
	switch def.Kind {
	case destset.PlanKindTrace:
		r, err := def.Runner(append(opts, destset.WithObserver(sink.Observe))...)
		if err != nil {
			return nil, err
		}
		if _, err := r.Run(s.ctx); err != nil {
			return nil, err
		}
	case destset.PlanKindTiming:
		r, err := def.TimingRunner(append(opts, destset.WithTimingObserver(sink.ObserveTiming))...)
		if err != nil {
			return nil, err
		}
		if _, err := r.Run(s.ctx); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown sweep kind %q", def.Kind)
	}
	if err := sink.Flush(); err != nil {
		return nil, err
	}
	return &figureReply{
		plan:     plan.Fingerprint(),
		kind:     plan.Kind(),
		cells:    plan.Len(),
		cached:   cached,
		computed: plan.Len() - cached,
		body:     body.Bytes(),
	}, nil
}

// observationsReply is the /v1/observations response body.
type observationsReply struct {
	Cells   map[string]cellReply `json:"cells"`
	Missing []string             `json:"missing,omitempty"`
}

// cellReply is one found cell: its plan kind and raw observation
// records, exactly as a sweep's JSONL output carries them.
type cellReply struct {
	Kind    string            `json:"kind"`
	Records []json.RawMessage `json:"records"`
}

func (s *server) handleObservations(w http.ResponseWriter, r *http.Request) {
	s.observationQueries.Add(1)
	cells := r.URL.Query().Get("cells")
	if cells == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("cells parameter required (comma-separated plan-cell fingerprints)"))
		return
	}
	reply := observationsReply{Cells: map[string]cellReply{}}
	for _, fp := range strings.Split(cells, ",") {
		fp = strings.TrimSpace(fp)
		if fp == "" {
			continue
		}
		kind, lines, ok := s.rs.CellRecords(fp)
		if !ok {
			reply.Missing = append(reply.Missing, fp)
			continue
		}
		records := make([]json.RawMessage, len(lines))
		for i, line := range lines {
			records[i] = json.RawMessage(line)
		}
		reply.Cells[fp] = cellReply{Kind: kind, Records: records}
	}
	s.logf("observations: %d found, %d missing", len(reply.Cells), len(reply.Missing))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}

// statsReply is the /v1/stats response body: per-tier store counters
// plus query totals — enough to compute hit ratios.
type statsReply struct {
	Results  destset.ResultStats  `json:"results"`
	Datasets destset.DatasetStats `json:"datasets"`
	Queries  struct {
		Figure        uint64 `json:"figure"`
		Observations  uint64 `json:"observations"`
		CellsCached   uint64 `json:"cells_cached"`
		CellsComputed uint64 `json:"cells_computed"`
	} `json:"queries"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	var reply statsReply
	reply.Results = s.rs.Stats()
	reply.Datasets = destset.DatasetCacheStats()
	reply.Queries.Figure = s.figureQueries.Load()
	reply.Queries.Observations = s.observationQueries.Load()
	reply.Queries.CellsCached = s.cellsCached.Load()
	reply.Queries.CellsComputed = s.cellsComputed.Load()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}
