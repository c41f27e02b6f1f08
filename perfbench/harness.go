package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed the reference digests in digests.go were
// recorded at.
const defaultSeed = 1

// A run sets up at least setupReps times, and cheap set-ups again until
// setupMinTime has been spent (at most setupMaxReps times); setup_s is
// the median.
const (
	setupReps    = 5
	setupMinTime = 200 * time.Millisecond
	setupMaxReps = 200
)

// inFlight is the closed loop's concurrency: two cells in flight, one
// per core of the 2-core reference host.
const inFlight = 2

// workloadRun is one benchmark workload. A run sets it up setupReps times,
// then calls pass in a closed loop for the timed phase, then verifies
// every pass's outputs.
type workloadRun interface {
	// setup rebuilds the warm state the timed phase starts from,
	// discarding whatever an earlier setup left behind.
	setup() error
	// pass runs one closed-loop pass with inFlight cells in flight. With
	// a non-nil tracer it is the traced variant: cells run one at a time
	// per slot and every layer call it can see is recorded.
	pass(tr *tracer) (passOut, error)
	// verify checks the outputs of every pass. It runs after the timed
	// phase and counts failed cells.
	verify(outs []passOut) verdict
	// table2 is the modelled design's Table 2 error in percentage points
	// from the run's outputs.
	table2(outs []passOut) float64
	// probe times the layers on the workload's own inputs (traced run).
	probe(l *ladder) error
	// budget adds each layer the workload's passes run to the per-miss
	// budget, from the probed costs.
	budget(l *ladder, b *budget)
}

// passOut is what one pass delivered.
type passOut struct {
	cells  int
	misses int64
	wall   time.Duration
	alloc  uint64
	// peakRSS is the pass's peak resident set in MB.
	peakRSS float64
	// out is the pass's raw output, kept for verify.
	out any
	// cleanup, when set, removes the pass's files after it was timed.
	cleanup func()
}

// verdict is the outcome of verification.
type verdict struct {
	attempted int
	failed    int
	failures  []string
	digests   map[string]string
}

func (v *verdict) fail(cells int, format string, args ...any) {
	v.failed += cells
	if len(v.failures) < 20 {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
}

// phase is one timed phase: passes run back to back until the time is
// up.
type phase struct {
	outs    []passOut
	elapsed time.Duration
	misses  int64
	cells   int
}

// missesPerSec is the median over the passes of each pass's delivered
// misses per second of its wall time.
func (p phase) missesPerSec() float64 {
	return median(p.rates())
}

func (p phase) rates() []float64 {
	xs := make([]float64, len(p.outs))
	for i, o := range p.outs {
		xs[i] = float64(o.misses) / o.wall.Seconds()
	}
	return xs
}

// peakRSSMB is the median over the passes of each pass's peak resident
// set in MB.
func (p phase) peakRSSMB() float64 {
	xs := make([]float64, len(p.outs))
	for i, o := range p.outs {
		xs[i] = o.peakRSS
	}
	return median(xs)
}

// allocMB is the median heap allocation of one pass in MB (2^20 bytes).
func (p phase) allocMB() float64 {
	xs := make([]float64, len(p.outs))
	for i, o := range p.outs {
		xs[i] = float64(o.alloc) / (1 << 20)
	}
	return median(xs)
}

// timedPhase runs passes until seconds of passes have been timed and at
// least minCells cells were delivered. It starts from a collected heap
// with the memory set-up freed returned to the OS; each pass restarts the
// resident-set high-water mark, so its peak is its own.
func timedPhase(w workloadRun, seconds float64, minCells int, tr *tracer) (phase, error) {
	var ph phase
	debug.FreeOSMemory()
	budget := time.Duration(seconds * float64(time.Second))
	for ph.elapsed < budget || ph.cells < minCells {
		resetPeakRSS()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		out, err := w.pass(tr)
		if err != nil {
			return ph, err
		}
		out.wall = time.Since(t0)
		out.peakRSS = peakRSSMB()
		runtime.ReadMemStats(&after)
		out.alloc = after.TotalAlloc - before.TotalAlloc
		if out.cleanup != nil {
			out.cleanup()
		}
		ph.outs = append(ph.outs, out)
		ph.misses += out.misses
		ph.cells += out.cells
		ph.elapsed += out.wall
	}
	if ph.cells == 0 {
		return ph, errNoWork
	}
	return ph, nil
}

// runWorkload performs one run: setup, timed phase, verification and —
// for the traced run — the layer probes.
func runWorkload(o options, newW func(*env) (workloadRun, error), log io.Writer) (*result, error) {
	dir, err := scratchDir(o)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{o: o, dir: dir}
	if o.trace {
		e.tr = newTracer()
	}
	w, err := newW(e)
	if err != nil {
		return nil, err
	}
	res := &result{}

	var setups []float64
	var spent time.Duration
	for len(setups) < setupReps || (spent < setupMinTime && len(setups) < setupMaxReps) {
		// Every set-up starts from a collected heap, not from the garbage
		// of the inputs or of the set-up before it.
		runtime.GC()
		t0 := time.Now()
		span := e.tr.begin("setup", 0, -1)
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		e.tr.end(span)
		d := time.Since(t0)
		spent += d
		setups = append(setups, d.Seconds())
	}

	if !o.trace {
		ph, err := timedPhase(w, o.seconds, 1, nil)
		if err != nil {
			return nil, err
		}
		v := w.verify(ph.outs)
		res.attempted, res.failed, res.failures, res.digests = v.attempted, v.failed, v.failures, v.digests
		res.set("setup_s", median(setups), "s")
		res.set("misses_per_s", ph.missesPerSec(), "1/s")
		res.set("alloc_mb", ph.allocMB(), "MB")
		res.set("peak_rss_mb", ph.peakRSSMB(), "MB")
		res.set("table2_err_pp", w.table2(ph.outs), "pp")
		rates := ph.rates()
		fmt.Fprintf(log, "perfbench: %s seed %d: %d passes, %d cells, %.2fs timed, misses/s per pass min %.4g median %.4g max %.4g\n",
			o.workload, o.seed, len(ph.outs), ph.cells, ph.elapsed.Seconds(), quantile(rates, 0), median(rates), quantile(rates, 1))
		return res, nil
	}

	// Traced run: an untraced and a traced half of the timed phase give
	// the tracing overhead; the probes then time every layer.
	plain, err := timedPhase(w, o.seconds/2, 1, nil)
	if err != nil {
		return nil, err
	}
	traced, err := timedPhase(w, o.seconds/2, minTracedCells, e.tr)
	if err != nil {
		return nil, err
	}
	v := w.verify(append(append([]passOut(nil), plain.outs...), traced.outs...))
	res.attempted, res.failed, res.failures, res.digests = v.attempted, v.failed, v.failures, v.digests

	l := newLadder(e, res)
	l.cellSamples(e.tr)
	if err := w.probe(l); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	res.set("trace.overhead_pct", 100*(plain.missesPerSec()-traced.missesPerSec())/plain.missesPerSec(), "%")
	var b budget
	w.budget(l, &b)
	endToEnd := inFlight * 1e9 / plain.missesPerSec()
	res.set("ladder.residual_pct", b.residualPct(endToEnd), "%")
	b.print(log, o.workload, endToEnd)
	if err := l.complete(); err != nil {
		return nil, err
	}
	if o.spans != "" {
		path, err := e.tr.write(o.spans, o)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "perfbench: spans written to %s\n", path)
	}
	return res, nil
}

// minTracedCells is the fewest single-cell samples the traced phase
// collects, so sweep.cell_ms_p90 has at least ten samples beyond it.
const minTracedCells = 100

// resetPeakRSS restarts the process's resident-set high-water mark, which
// getrusage reports, at the current resident set. Where the kernel does
// not offer it, the peak stays the whole process's.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return s[i]
}
