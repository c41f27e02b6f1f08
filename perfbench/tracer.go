package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"destset"
	"destset/internal/distrib"
	"destset/internal/nodeset"
	"destset/internal/predictor"
)

// span is one recorded interval. A span with Calls > 0 is a rollup: the
// Calls calls of one layer made inside its parent, whose summed duration
// is Busy; Start and End bound them. Times are nanoseconds since the
// tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   int    `json:"cell"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// dur is the span's duration: Busy for a rollup, End-Start otherwise.
func (s span) dur() int64 {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths can call it freely.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// clockNs is the measured duration of an empty timed call — what a
	// per-call timing adds to the call it times — and nestNs what one
	// timed call adds to the span around it. Per-call rollups subtract
	// them.
	clockNs, nestNs float64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.calibrate()
	return t
}

// calibrate measures the clock's cost per timed call.
func (t *tracer) calibrate() {
	const n = 200_000
	var busy time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		busy += time.Since(t0)
	}
	total := time.Since(start)
	t.clockNs = float64(busy) / n
	t.nestNs = float64(total) / n
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, cell int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell, Start: start})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// record adds a span that ran for d from start and returns its id.
func (t *tracer) record(name string, parent, cell int, start time.Time, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell, Start: s, End: s + int64(d)})
	return len(t.spans)
}

// setCell tags span id with a plan cell.
func (t *tracer) setCell(id, cell int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Cell = cell
	t.mu.Unlock()
}

// rollup records calls calls of one layer inside parent.
func (t *tracer) rollup(name string, parent, cell int, start, end time.Time, calls, busy int64) {
	if t == nil || calls == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Calls: calls, Busy: busy})
}

// named returns every span with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfNs is the summed self time of every span named name: its duration
// minus the time its child spans cover.
func (t *tracer) selfNs(name string) (self int64, calls int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans {
		if s.Name == name {
			self += s.dur() - child[s.ID]
			calls += max(s.Calls, 1)
		}
	}
	return self, calls
}

// write stores the spans as JSON Lines under dir, after one calibration
// record, and returns the file's path.
func (t *tracer) write(dir string, o options) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.Encode(map[string]float64{"clock_ns": t.clockNs, "nest_ns": t.nestNs})
	t.mu.Lock()
	for _, s := range t.spans {
		enc.Encode(s)
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// predAcc accumulates one bank's predictor calls. A bank belongs to one
// cell, and a cell runs on one goroutine at a time.
type predAcc struct {
	predictN, predictNs int64
	trainN, trainNs     int64
}

func (a *predAcc) add(b predAcc) {
	a.predictN += b.predictN
	a.predictNs += b.predictNs
	a.trainN += b.trainN
	a.trainNs += b.trainNs
}

// tracedPredictor times every call into the predictor it wraps.
type tracedPredictor struct {
	inner predictor.Predictor
	acc   *predAcc
}

func (p *tracedPredictor) Predict(q predictor.Query) nodeset.Set {
	t0 := time.Now()
	s := p.inner.Predict(q)
	p.acc.predictNs += int64(time.Since(t0))
	p.acc.predictN++
	return s
}

func (p *tracedPredictor) TrainResponse(ev predictor.Response) {
	t0 := time.Now()
	p.inner.TrainResponse(ev)
	p.acc.trainNs += int64(time.Since(t0))
	p.acc.trainN++
}

func (p *tracedPredictor) TrainRequest(ev predictor.External) {
	t0 := time.Now()
	p.inner.TrainRequest(ev)
	p.acc.trainNs += int64(time.Since(t0))
	p.acc.trainN++
}

func (p *tracedPredictor) TrainRetry(ev predictor.Retry) {
	t0 := time.Now()
	p.inner.TrainRetry(ev)
	p.acc.trainNs += int64(time.Since(t0))
	p.acc.trainN++
}

func (p *tracedPredictor) Name() string { return p.inner.Name() }

// tracedBank builds a bank of traced predictors sharing acc.
func tracedBank(cfg predictor.Config, acc *predAcc) []predictor.Predictor {
	bank := predictor.NewBank(cfg)
	for i, p := range bank {
		bank[i] = &tracedPredictor{inner: p, acc: acc}
	}
	return bank
}

// slotAcc is the predictor accumulator of the cell each slot is running;
// the traced policies registered below hand it to every bank they build.
var slotAcc [inFlight]atomic.Pointer[predAcc]

var registerOnce sync.Once

// tracedPolicyName is the registered name of policy p's traced variant
// for one slot.
func tracedPolicyName(p destset.Policy, slot int) string {
	return fmt.Sprintf("bench-%s-%d", strings.ToLower(p.String()), slot)
}

// registerTracedPolicies registers a traced variant of every paper
// policy per slot, so the runners' engines and the timing simulator's
// NewBank build traced banks.
func registerTracedPolicies() error {
	var err error
	registerOnce.Do(func() {
		for slot := 0; slot < inFlight; slot++ {
			for _, pol := range paperPolicies {
				slot, pol := slot, pol
				err = destset.RegisterPolicy(tracedPolicyName(pol, slot), func(cfg predictor.Config) predictor.Predictor {
					cfg.Policy = pol
					return &tracedPredictor{inner: predictor.New(cfg), acc: slotAcc[slot].Load()}
				})
				if err != nil {
					return
				}
			}
		}
	})
	return err
}

// tracedEngines swaps each policy engine for its slot's traced variant,
// keeping the label so outputs stay byte-identical.
func tracedEngines(engines []destset.EngineSpec, slot int) []destset.EngineSpec {
	out := make([]destset.EngineSpec, len(engines))
	for i, e := range engines {
		out[i] = e
		if e.UsePolicy {
			out[i] = destset.EngineSpec{Protocol: e.Protocol, PolicyName: tracedPolicyName(e.Policy, slot), Label: e.DisplayLabel()}
		}
	}
	return out
}

// tracedSims swaps each policy sim spec for its slot's traced variant.
func tracedSims(sims []destset.SimSpec, slot int) []destset.SimSpec {
	out := make([]destset.SimSpec, len(sims))
	for i, s := range sims {
		out[i] = s
		if s.UsePolicy {
			out[i].UsePolicy = false
			out[i].PolicyName = tracedPolicyName(s.Policy, slot)
			out[i].Label = s.DisplayLabel()
		}
	}
	return out
}

// encAcc accumulates JSONL encoding calls.
type encAcc struct {
	n, ns int64
}

// time runs one encoding call under mu, the lock of the sink the slots
// share, and adds its duration.
func (a *encAcc) time(mu *sync.Mutex, encode func()) {
	mu.Lock()
	defer mu.Unlock()
	t0 := time.Now()
	encode()
	a.ns += int64(time.Since(t0))
	a.n++
}

// countingWriter counts bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// tracedTransport times the coordinator round trips of the workers
// sharing it.
type tracedTransport struct {
	inner  http.RoundTripper
	tr     *tracer
	parent int

	mu       sync.Mutex
	requests int
	leases   int
	grants   int
	leaseLo  map[string]int
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "distrib.request"
	switch {
	case strings.HasSuffix(req.URL.Path, "/v1/lease"):
		name = "distrib.lease"
	case strings.HasSuffix(req.URL.Path, "/v1/complete"):
		name = "distrib.complete"
	}
	cell := -1
	t.mu.Lock()
	t.requests++
	if name == "distrib.complete" {
		if lo, ok := t.leaseLo[req.URL.Query().Get("lease")]; ok {
			cell = lo
		}
	}
	t.mu.Unlock()
	id := t.tr.begin(name, t.parent, cell)
	resp, err := t.inner.RoundTrip(req)
	if err == nil && name == "distrib.lease" {
		// The reply is small; read it here so the span covers it and the
		// grant can be counted.
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var reply distrib.LeaseReply
		granted := rerr == nil && json.Unmarshal(body, &reply) == nil && reply.Lease != nil
		t.mu.Lock()
		t.leases++
		if granted {
			t.grants++
			t.leaseLo[reply.Lease.ID] = reply.Lease.Lo
		}
		t.mu.Unlock()
		if granted {
			t.tr.setCell(id, reply.Lease.Lo)
		}
	}
	t.tr.end(id)
	return resp, err
}
