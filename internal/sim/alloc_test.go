package sim

import (
	"context"
	"runtime"
	"testing"

	"destset/internal/dataset"
	"destset/internal/memtest"
	"destset/internal/workload"
)

// simStreams generates a warm/timed source pair for the allocation
// budgets from a real workload, so the measured loop exercises every
// protocol path (retries, forwards, invalidations, writebacks): the
// records of a dataset's two regions, copied into memory.
func simStreams(t *testing.T, warmN, timedN int) (warm, timed Source) {
	t.Helper()
	p, err := workload.Preset("oltp", 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dataset.Generate(p, warmN, timedN)
	if err != nil {
		t.Fatal(err)
	}
	return copyOf(d.WarmRegion()), copyOf(d.MeasureRegion())
}

// restoredSim sets up a run of cfg the way a sweep's later cells are set
// up: a first SimulateWarm call builds job's warm-up and streams and
// returns its shell to a free list, and the returned run takes that
// shell back and restores job's warm-up into its oracle.
func restoredSim(t *testing.T, cfg Config, job *Job) *sim {
	t.Helper()
	var shells Shells
	if _, err := SimulateWarm(context.Background(), cfg, job, &shells); err != nil {
		t.Fatal(err)
	}
	if len(shells.free) != 1 {
		t.Fatalf("free list holds %d shells after one run, want 1", len(shells.free))
	}
	reused := shells.free[0]
	if s := shells.get(cfg); s != reused {
		t.Fatal("run did not reuse the free shell")
	}
	if err := job.warmUp(context.Background(), reused.coh, reused.preds); err != nil {
		t.Fatal(err)
	}
	return reused
}

// TestSimLoopAllocFree is the timing-simulator allocation budget: once a
// run reaches steady state (message and delivery pools grown to peak
// concurrency), the per-simulated-miss path — issue, ordering, delivery,
// retry, data response, completion — must not allocate. The run restores
// a shared warm-up into a reused shell, as a sweep's cells do. The first
// half of the run primes the pools; the second half is measured and must
// stay at 0 allocs per miss (a tiny amortized tolerance covers the
// first-touch pages of the coherence block table, the caches' first-fill
// chunks and the event queue's backing array growth).
func TestSimLoopAllocFree(t *testing.T) {
	warm, timed := simStreams(t, 8_000, 16_000)
	for _, proto := range []Protocol{Snooping, Directory, Multicast} {
		for _, cpu := range []CPUModel{SimpleCPU, DetailedCPU} {
			t.Run(proto.String()+"/"+cpu.String(), func(t *testing.T) {
				cfg := DefaultConfig(proto)
				cfg.CPU = cpu
				job := NewJob(warm, timed)
				s := restoredSim(t, cfg, job)
				s.start(mustLayout(t, job))
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
// region runs, on the OLTP streams of a Figure 7 cell (20,000 warm and
// 20,000 timed misses).
//
//   - A one-call run (Simulate) builds a new shell (oracle, crossbar,
//     event loop), a predictor bank, and replays the warm stream. Its
//     set-up before start was measured on a multicast cell: 114.6 MB
//     while the block table was a dense slice grown to the highest block
//     touched, 33.5 MB with the sparse page table and flat cache sets, and
//     10,490,328 bytes (the most of plain go test, -cpu 1,4 and -race)
//     once the caches allocate the pages of sets they fill. Its cap is
//     1.2x that. Recording the warm stream as columns, which the bank
//     trains over, brought it to 11,147,096.
//   - A sweep's later cell restores a shared warm-up into a reused shell.
//     A multicast cell allocated 4,339,640 bytes when only its oracle was
//     reused, almost all of it a new predictor bank (4,328,304 bytes).
//     Now a completed run hands its bank back (predictor.Recycle) and the
//     next cell of the configuration resets it, so the cell's cap is
//     64 KB. A directory cell's cap stays at 1.2x the 7,712 bytes first
//     measured for a new crossbar, event loop and histogram; on a reused
//     shell it allocates 1,016.
//   - The whole cell — set-up and start, which schedules each node's first
//     miss — on the shell a completed run of the same job handed back
//     allocated 4,329,496 bytes, 1.2 KB beyond its new bank; with the
//     bank taken over, its cap is 64 KB too. A per-cell layout of the
//     timed streams and a per-cell transaction slab would add 3 MB.
//
// The restored and whole-cell runs measure with the collector off
// (memtest.PerRunNoGC), since the free list holds idle banks only
// weakly: a collection between two cells frees the bank, and the next
// cell builds a new one.
func TestSimSetupBytes(t *testing.T) {
	warm, timed := simStreams(t, 20_000, 20_000)
	ctx := context.Background()
	t.Run("one-call", func(t *testing.T) {
		const maxSetupBytes = 1.2 * 10_490_328
		cfg := DefaultConfig(Multicast)
		got, _ := memtest.PerRun(1, func() {
			s := newSim(cfg)
			if err := (&Job{warm: warm, timed: timed}).warmUp(ctx, s.coh, s.preds); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("one-call set-up allocated %.0f bytes", got)
		if got > maxSetupBytes {
			t.Errorf("one-call set-up allocated %.2f MB, want at most %.2f MB",
				got/(1<<20), maxSetupBytes/(1<<20))
		}
	})
	for _, c := range []struct {
		proto    Protocol
		maxBytes float64
	}{
		{Multicast, 64 << 10},
		{Directory, 1.2 * 7_712},
	} {
		t.Run("restored/"+c.proto.String(), func(t *testing.T) {
			cfg := DefaultConfig(c.proto)
			job := NewJob(warm, timed)
			var shells Shells
			// PerRunNoGC's first call builds the snapshot; the measured
			// call restores it into the shell the first call handed back,
			// with the bank that shell's run recycled.
			got, _ := memtest.PerRunNoGC(1, func() {
				s := shells.get(cfg)
				if err := job.warmUp(ctx, s.coh, s.preds); err != nil {
					t.Fatal(err)
				}
				shells.put(s)
			})
			t.Logf("restored set-up allocated %.0f bytes", got)
			if got > c.maxBytes {
				t.Errorf("restored set-up allocated %.0f bytes, want at most %.0f", got, c.maxBytes)
			}
		})
	}
	t.Run("whole-cell/multicast", func(t *testing.T) {
		const maxCellBytes = 64 << 10
		cfg := DefaultConfig(Multicast)
		job := NewJob(warm, timed)
		var shells Shells
		// PerRunNoGC's first call runs a whole cell, which builds the
		// job's warm-up and streams and hands its shell and bank back; the
		// measured call sets up and starts the next cell on that shell.
		first := true
		got, _ := memtest.PerRunNoGC(1, func() {
			if first {
				first = false
				if _, err := SimulateWarm(ctx, cfg, job, &shells); err != nil {
					t.Fatal(err)
				}
				return
			}
			s := shells.get(cfg)
			if err := job.warmUp(ctx, s.coh, s.preds); err != nil {
				t.Fatal(err)
			}
			s.start(mustLayout(t, job))
		})
		t.Logf("whole cell allocated %.0f bytes", got)
		if got > maxCellBytes {
			t.Errorf("whole-cell set-up and start allocated %.0f bytes, want at most %d", got, maxCellBytes)
		}
	})
}
