package sim

import (
	"context"
	"runtime"
	"testing"

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

// TestSimLoopAllocFree is the timing-simulator allocation budget: once a
// run reaches steady state (transaction slab loaded, message and
// delivery pools grown to peak concurrency), the per-simulated-miss path
// — issue, ordering, delivery, retry, data response, completion — must
// not allocate. The first half of the run primes the pools; the second
// half is measured and must stay at 0 allocs per miss (a tiny amortized
// tolerance covers the coherence block table's first-touch pages and the
// event queue's backing array growth).
func TestSimLoopAllocFree(t *testing.T) {
	warm, timed := simStreams(t, 8_000, 16_000)
	for _, proto := range []Protocol{Snooping, Directory, Multicast} {
		for _, cpu := range []CPUModel{SimpleCPU, DetailedCPU} {
			t.Run(proto.String()+"/"+cpu.String(), func(t *testing.T) {
				cfg := DefaultConfig(proto)
				cfg.CPU = cpu
				s := newSim(cfg)
				if err := s.warmUp(context.Background(), warm); err != nil {
					t.Fatal(err)
				}
				s.loadStreams(timed)
				for _, n := range s.nodes {
					s.tryIssue(n)
				}
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
// region: newSim (the coherence oracle's caches and block table, the
// crossbar, the predictor bank) plus warmUp over the OLTP warm stream of
// a Figure 7 cell. Measured on a multicast cell: 114.6 MB while the block
// table was a dense slice grown to the highest block touched, 33.5 MB
// with the sparse page table and flat cache sets.
func TestSimSetupBytes(t *testing.T) {
	const maxSetupBytes = 40 << 20
	warm, _ := simStreams(t, 20_000, 1)
	got, _ := memtest.PerRun(1, func() {
		s := newSim(DefaultConfig(Multicast))
		if err := s.warmUp(context.Background(), warm); err != nil {
			t.Fatal(err)
		}
	})
	if got > maxSetupBytes {
		t.Errorf("newSim + warmUp allocated %.1f MB, want at most %d MB",
			got/(1<<20), maxSetupBytes>>20)
	}
}
