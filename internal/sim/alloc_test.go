package sim

import (
	"context"
	"runtime"
	"testing"

	"destset/internal/coherence"
	"destset/internal/memtest"
	"destset/internal/workload"
)

// simStreams generates a warm/timed source pair for the allocation
// budgets from a real workload, so the measured loop exercises every
// protocol path (retries, forwards, invalidations, writebacks).
func simStreams(t *testing.T, warmN, timedN int) (warm, timed Source) {
	t.Helper()
	p, err := workload.Preset("oltp", 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	warmTr, _ := g.Generate(warmN)
	timedTr, _ := g.Generate(timedN)
	return TraceSource(warmTr), TraceSource(timedTr)
}

// restoredSim sets up a run of cfg the way a sweep's later cells are set
// up: a first SimulateWarm call builds w's snapshot and returns its
// oracle to a free list, and the returned run takes that oracle back and
// restores w into it.
func restoredSim(t *testing.T, cfg Config, w *Warmup, timed Source) *sim {
	t.Helper()
	var oracles Oracles
	if _, err := SimulateWarm(context.Background(), cfg, w, timed, &oracles); err != nil {
		t.Fatal(err)
	}
	if len(oracles.free) != 1 {
		t.Fatalf("free list holds %d oracles after one run, want 1", len(oracles.free))
	}
	reused := oracles.free[0]
	s := newSim(cfg, oracles.get(cohConfig(cfg)))
	if s.coh != reused {
		t.Fatal("run did not reuse the free oracle")
	}
	if err := w.apply(context.Background(), s.coh, s.preds); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSimLoopAllocFree is the timing-simulator allocation budget: once a
// run reaches steady state (transaction slab loaded, message and
// delivery pools grown to peak concurrency), the per-simulated-miss path
// — issue, ordering, delivery, retry, data response, completion — must
// not allocate. The run restores a shared warm-up into a reused oracle,
// as a sweep's cells do. The first half of the run primes the pools; the
// second half is measured and must stay at 0 allocs per miss (a tiny
// amortized tolerance covers the coherence block table's first-touch
// pages and the event queue's backing array growth).
func TestSimLoopAllocFree(t *testing.T) {
	warm, timed := simStreams(t, 8_000, 16_000)
	for _, proto := range []Protocol{Snooping, Directory, Multicast} {
		for _, cpu := range []CPUModel{SimpleCPU, DetailedCPU} {
			t.Run(proto.String()+"/"+cpu.String(), func(t *testing.T) {
				cfg := DefaultConfig(proto)
				cfg.CPU = cpu
				s := restoredSim(t, cfg, NewWarmup(warm), timed)
				s.start(timed)
				// Prime: run the first half of the misses.
				half := s.total / 2
				for s.completed < half && s.loop.Step() {
				}

				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				s.loop.Run()
				runtime.ReadMemStats(&after)

				if s.completed != s.total {
					t.Fatalf("deadlock: %d/%d misses completed", s.completed, s.total)
				}
				measured := s.completed - half
				allocs := after.Mallocs - before.Mallocs
				if perMiss := float64(allocs) / float64(measured); perMiss > 0.01 {
					t.Errorf("steady-state sim loop allocates %.4f/miss (%d allocs over %d misses), want 0",
						perMiss, allocs, measured)
				}
			})
		}
	}
}

// TestSimSetupBytes caps what one timing cell allocates before its timed
// region: its oracle (the caches and block table), the crossbar, the
// predictor bank, and warm-up over the OLTP warm stream of a Figure 7
// cell.
//
//   - A one-call run (Simulate) builds a new oracle and replays the warm
//     stream. Measured on a multicast cell: 114.6 MB while the block
//     table was a dense slice grown to the highest block touched, 33.5 MB
//     with the sparse page table and flat cache sets.
//   - A sweep's later cell restores a shared warm-up into a reused oracle,
//     so it allocates little beyond its predictor bank: at most 6,302,096
//     bytes for multicast and 7,712 for directory, measured under plain
//     go test, -cpu 1,4 and -race. The caps are 1.2x those.
func TestSimSetupBytes(t *testing.T) {
	warm, _ := simStreams(t, 20_000, 1)
	ctx := context.Background()
	t.Run("one-call", func(t *testing.T) {
		const maxSetupBytes = 40 << 20
		cfg := DefaultConfig(Multicast)
		got, _ := memtest.PerRun(1, func() {
			s := newSim(cfg, coherence.NewSystem(cohConfig(cfg)))
			if err := (&Warmup{src: warm}).apply(ctx, s.coh, s.preds); err != nil {
				t.Fatal(err)
			}
		})
		if got > maxSetupBytes {
			t.Errorf("one-call set-up allocated %.1f MB, want at most %d MB",
				got/(1<<20), maxSetupBytes>>20)
		}
	})
	for _, c := range []struct {
		proto    Protocol
		maxBytes float64
	}{
		{Multicast, 1.2 * 6_302_096},
		{Directory, 1.2 * 7_712},
	} {
		t.Run("restored/"+c.proto.String(), func(t *testing.T) {
			cfg := DefaultConfig(c.proto)
			w := NewWarmup(warm)
			var oracles Oracles
			// PerRun's first call builds the snapshot; the measured call
			// restores it into the oracle the first call handed back.
			got, _ := memtest.PerRun(1, func() {
				s := newSim(cfg, oracles.get(cohConfig(cfg)))
				if err := w.apply(ctx, s.coh, s.preds); err != nil {
					t.Fatal(err)
				}
				oracles.put(s.coh)
			})
			if got > c.maxBytes {
				t.Errorf("restored set-up allocated %.3f MB, want at most %.3f MB",
					got/(1<<20), c.maxBytes/(1<<20))
			}
		})
	}
}
