package destset_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"destset"
	"destset/internal/memtest"
)

// traceTestDef is a small trace sweep with interval streaming, so every
// cell carries a multi-observation stream the store must replay
// faithfully.
func traceTestDef() destset.SweepDef {
	return destset.NewTraceSweepDef(
		[]destset.EngineSpec{
			{Protocol: destset.ProtocolSnooping},
			destset.SpecForPolicy(destset.Group),
		},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 1000, Measure: 1000}},
		destset.WithSeeds(1, 2),
		destset.WithInterval(400),
	)
}

func timingTestDef() destset.SweepDef {
	return destset.NewTimingSweepDef(
		[]destset.SimSpec{
			{Protocol: destset.ProtocolSnooping},
			{Protocol: destset.ProtocolMulticast, Policy: destset.OwnerGroup, UsePolicy: true},
		},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 1000, Measure: 1000}},
		destset.WithSeeds(1, 2),
	)
}

// runDefJSONL runs def with an optional result store at the given
// parallelism, plus any extra options, and returns the manifest-headed
// JSONL file its observer wrote — byte for byte, no merge pass — plus
// the result slice.
func runDefJSONL(t *testing.T, def destset.SweepDef, rs *destset.ResultStore, parallelism int, extra ...destset.RunnerOption) ([]byte, any) {
	t.Helper()
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	sink := destset.NewJSONLObserver(&raw)
	if err := sink.WriteManifest(plan.Manifest(0, 1)); err != nil {
		t.Fatal(err)
	}
	opts := append([]destset.RunnerOption{destset.WithParallelism(parallelism)}, extra...)
	if rs != nil {
		opts = append(opts, destset.WithResultStore(rs))
	}
	var res any
	switch def.Kind {
	case destset.PlanKindTrace:
		r, err := def.Runner(append(opts, destset.WithObserver(sink.Observe))...)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	case destset.PlanKindTiming:
		r, err := def.TimingRunner(append(opts, destset.WithTimingObserver(sink.ObserveTiming))...)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown kind %q", def.Kind)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes(), res
}

// TestResultStoreWarmRerunByteIdentical is the tentpole acceptance
// property for both sweep kinds: a rerun over a warm store computes
// zero cells, touches no dataset tier, and still produces output
// byte-identical to an uncached run — at parallelism 1 and N, in the
// same process and from a cold process sharing the directory.
func TestResultStoreWarmRerunByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		def  destset.SweepDef
	}{
		{"trace", traceTestDef()},
		{"timing", timingTestDef()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := tc.def.Plan()
			if err != nil {
				t.Fatal(err)
			}
			cells := uint64(plan.Len())
			baseline, baseRes := runDefJSONL(t, tc.def, nil, 1)

			dir := t.TempDir()
			rs := destset.NewResultStore()
			if err := rs.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			cold, _ := runDefJSONL(t, tc.def, rs, 1)
			if !bytes.Equal(cold, baseline) {
				t.Fatalf("store-attached cold run diverges from uncached run:\n%s\nvs\n%s", cold, baseline)
			}
			if st := rs.Stats(); st.Stores != cells || st.MemMisses != cells {
				t.Fatalf("cold run stats: %+v, want %d stores and misses", st, cells)
			}

			dsBefore := destset.DatasetCacheStats()
			warm, warmRes := runDefJSONL(t, tc.def, rs, 1)
			if !bytes.Equal(warm, baseline) {
				t.Fatalf("warm rerun diverges from uncached run:\n%s\nvs\n%s", warm, baseline)
			}
			if !reflect.DeepEqual(warmRes, baseRes) {
				t.Error("warm rerun result slice differs from uncached run")
			}
			st := rs.Stats()
			if st.Stores != cells {
				t.Fatalf("warm rerun computed cells: %d stores, want %d", st.Stores, cells)
			}
			if st.MemHits != cells {
				t.Fatalf("warm rerun stats: %+v, want %d memory hits", st, cells)
			}
			// A fully-warm rerun must not touch the dataset store at all:
			// no generations, no tier traffic — the cells' datasets are
			// never even prewarmed.
			if dsAfter := destset.DatasetCacheStats(); dsAfter != dsBefore {
				t.Errorf("warm rerun touched the dataset store: %+v -> %+v", dsBefore, dsAfter)
			}

			// Parallelism N writes the same file, with or without the
			// store, and returns the same result slice.
			parStream, parRes := runDefJSONL(t, tc.def, rs, 8)
			if !bytes.Equal(parStream, baseline) {
				t.Error("warm parallel rerun's stream diverges from uncached run")
			}
			if !reflect.DeepEqual(parRes, baseRes) {
				t.Error("warm parallel rerun result slice differs from uncached run")
			}
			if uncached, _ := runDefJSONL(t, tc.def, nil, 8); !bytes.Equal(uncached, baseline) {
				t.Error("uncached parallel run's stream diverges from the parallelism-1 run")
			}

			// A store holding half the cells: the hits replay in their own
			// slots between computed cells, in the same bytes at
			// parallelism 1 and 8.
			var even, odd []int
			for i := 0; i < plan.Len(); i++ {
				if i%2 == 0 {
					even = append(even, i)
				} else {
					odd = append(odd, i)
				}
			}
			for _, par := range []int{1, 8} {
				half := destset.NewResultStore()
				runDefJSONL(t, tc.def, half, 1, destset.WithCells(even))
				got, _ := runDefJSONL(t, tc.def, half, par)
				if !bytes.Equal(got, baseline) {
					t.Errorf("parallelism %d over a half-warm store diverges from uncached run:\n%s\nvs\n%s", par, got, baseline)
				}
				if st := half.Stats(); st.MemHits != uint64(len(even)) || st.Stores != cells {
					t.Errorf("parallelism %d over a half-warm store: %+v, want %d hits and %d stores", par, st, len(even), cells)
				}
			}
			// A cell subset writes the same bytes at parallelism 1 and 8.
			sub1, _ := runDefJSONL(t, tc.def, nil, 1, destset.WithCells(odd))
			if sub8, _ := runDefJSONL(t, tc.def, nil, 8, destset.WithCells(odd)); !bytes.Equal(sub8, sub1) {
				t.Errorf("WithCells run differs between parallelism 1 and 8:\n%s\nvs\n%s", sub8, sub1)
			}

			// A cold process sharing the directory: zero computations,
			// every cell from the disk tier, identical bytes.
			coldProc := destset.NewResultStore()
			if err := coldProc.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			fromDisk, _ := runDefJSONL(t, tc.def, coldProc, 1)
			if !bytes.Equal(fromDisk, baseline) {
				t.Error("cold-process warm-store run diverges from uncached run")
			}
			if st := coldProc.Stats(); st.Stores != 0 || st.DiskHits != cells {
				t.Fatalf("cold-process stats: %+v, want 0 stores and %d disk hits", st, cells)
			}
		})
	}
}

// TestResultStoreIncrementalRerun pins the incremental contract: change
// 3 of 9 cells' specs and only those 3 compute — the store serves the
// other 6 — with results identical to an uncached run of the new sweep.
func TestResultStoreIncrementalRerun(t *testing.T) {
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 800, Measure: 800}}
	seeds := destset.WithSeeds(1, 2, 3)
	before := destset.NewTraceSweepDef(
		[]destset.EngineSpec{
			{Protocol: destset.ProtocolSnooping},
			{Protocol: destset.ProtocolDirectory},
			destset.SpecForPolicy(destset.Group),
		},
		workloads, seeds,
	)
	// The "edited" sweep: the middle engine spec changes, the other two
	// — and every workload and seed — stay put. One workload × 3 seeds
	// per engine, so exactly 3 of the 9 cell fingerprints change.
	after := destset.NewTraceSweepDef(
		[]destset.EngineSpec{
			{Protocol: destset.ProtocolSnooping},
			destset.SpecForPolicy(destset.OwnerGroup),
			destset.SpecForPolicy(destset.Group),
		},
		workloads, seeds,
	)

	rs := destset.NewResultStore() // memory-only: WithResultStore needs no dir
	if _, _, err := warmRun(before, rs); err != nil {
		t.Fatal(err)
	}
	if st := rs.Stats(); st.Stores != 9 {
		t.Fatalf("first run stored %d cells, want 9", st.Stores)
	}

	baseline, _ := runDefJSONL(t, after, nil, 1)
	got, _ := runDefJSONL(t, after, rs, 1)
	if !bytes.Equal(got, baseline) {
		t.Fatal("incremental rerun diverges from an uncached run of the edited sweep")
	}
	st := rs.Stats()
	if computed := st.Stores - 9; computed != 3 {
		t.Errorf("incremental rerun computed %d cells, want 3 (the changed engine's)", computed)
	}
	if st.MemHits != 6 {
		t.Errorf("incremental rerun served %d cells from the store, want 6", st.MemHits)
	}
}

// warmRun executes def once against rs, without observers.
func warmRun(def destset.SweepDef, rs *destset.ResultStore) (any, *destset.SweepPlan, error) {
	plan, err := def.Plan()
	if err != nil {
		return nil, nil, err
	}
	r, err := def.Runner(destset.WithResultStore(rs), destset.WithParallelism(1))
	if err != nil {
		return nil, nil, err
	}
	res, err := r.Run(context.Background())
	return res, plan, err
}

// TestResultStoreCellLines pins the raw-record interface the
// distributed coordinator uses: StoreCellLines round-trips
// byte-identically through CellLines; a spilled (non-Final)
// trace record serves observation replay but reads as a miss to a
// runner, which upgrades it on compute.
func TestResultStoreCellLines(t *testing.T) {
	def := destset.NewTraceSweepDef(
		[]destset.EngineSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 500, Measure: 500}},
		destset.WithSeeds(1),
		destset.WithInterval(200),
	)
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	fp := plan.Cell(0).Fingerprint
	stream, _ := runDefJSONL(t, def, nil, 1)

	// The single cell's observation lines: everything after the manifest.
	var lines [][]byte
	for _, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n"))[1:] {
		lines = append(lines, append([]byte(nil), line...))
	}
	if len(lines) < 2 {
		t.Fatalf("want a multi-observation cell, got %d lines", len(lines))
	}

	rs := destset.NewResultStore()
	if err := rs.StoreCellLines(destset.PlanKindTrace, fp, lines); err != nil {
		t.Fatal(err)
	}
	// The spill is replayable...
	got, ok := rs.CellLines(destset.PlanKindTrace, fp)
	if !ok {
		t.Fatal("CellLines misses a trace cell just stored")
	}
	if !reflect.DeepEqual(got, lines) {
		t.Fatalf("spilled lines diverge:\n%q\nvs\n%q", got, lines)
	}
	if _, ok := rs.CellLines(destset.PlanKindTiming, fp); ok {
		t.Error("CellLines served a trace record to a timing caller")
	}
	// ...but not runner-servable: the record lacks the engine name.
	if rs.HasCell(destset.PlanKindTrace, fp) {
		t.Error("non-Final spilled record claims to be runner-servable")
	}
	spilled := rs.Stats().Stores // the spill itself counts as one Put
	if _, _, err := warmRun(def, rs); err != nil {
		t.Fatal(err)
	}
	st := rs.Stats()
	if st.Stores != spilled+1 {
		t.Errorf("runner over a non-Final record stored %d cells, want 1 (spills are misses to runners)", st.Stores-spilled)
	}
	if !rs.HasCell(destset.PlanKindTrace, fp) {
		t.Error("computing the cell did not upgrade the record to Final")
	}
	// The upgraded record replays the identical observation stream.
	if got, _ := rs.CellLines(destset.PlanKindTrace, fp); !reflect.DeepEqual(got, lines) {
		t.Error("upgraded record's observation lines diverge from the original stream")
	}

	// Refusals.
	if err := rs.StoreCellLines(destset.PlanKindTrace, "fp-x", nil); err == nil {
		t.Error("StoreCellLines accepted an empty cell")
	}
	if err := rs.StoreCellLines(destset.PlanKindTiming, "fp-x", lines); err == nil || !strings.Contains(err.Error(), "want 1") {
		t.Errorf("StoreCellLines accepted a multi-line timing cell: %v", err)
	}
	if err := rs.StoreCellLines("mystery", "fp-x", lines[:1]); err == nil {
		t.Error("StoreCellLines accepted an unknown kind")
	}
}

// TestSetResultDirArmsSharedStore pins the opt-in rule for the
// process-wide store: runners ignore it until SetResultDir names a
// directory, and consult it afterwards without any explicit option.
func TestSetResultDirArmsSharedStore(t *testing.T) {
	if destset.ResultDir() != "" {
		t.Fatal("shared result store armed at test entry")
	}
	defer func() {
		if err := destset.SetResultDir(""); err != nil {
			t.Fatal(err)
		}
		destset.PurgeResults()
	}()
	def := traceTestDef()
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	before := destset.ResultStoreStats()
	if _, err := mustRunner(t, def).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := destset.ResultStoreStats(); after.Stores != before.Stores {
		t.Fatal("disarmed shared store saw traffic from a plain run")
	}
	if err := destset.SetResultDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := mustRunner(t, def).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := destset.ResultStoreStats(); st.Stores != before.Stores+uint64(plan.Len()) {
		t.Fatalf("armed shared store stats: %+v, want %d new stores", st, plan.Len())
	}
}

func mustRunner(t *testing.T, def destset.SweepDef) *destset.Runner {
	t.Helper()
	r, err := def.Runner(destset.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestResultStoreLookupAllocBudget pins the incremental-rerun hit path: a
// fresh store, as after exec, resolving the four cells of a small timing
// plan from a warm result dir. Measured at 7,648 B and 106 allocations
// per lookup of all four; the bound is 1.2x that.
func TestResultStoreLookupAllocBudget(t *testing.T) {
	const maxBytes, maxAllocs = 1.2 * 7648, 1.2 * 106
	dir := t.TempDir()
	def := destset.NewTimingSweepDef(
		[]destset.SimSpec{
			{Protocol: destset.ProtocolSnooping},
			{Protocol: destset.ProtocolDirectory},
		},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 4_000, Measure: 4_000}},
		destset.WithSeeds(1, 2),
	)
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	seed := destset.NewResultStore()
	if err := seed.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	r, err := def.TimingRunner(destset.WithResultStore(seed))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	cells := plan.Cells()

	gotB, gotAllocs := memtest.PerRun(20, func() {
		cold := destset.NewResultStore()
		if err := cold.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			if !cold.HasCell(plan.Kind(), c.Fingerprint) {
				t.Fatalf("cell %s not served from the warm result dir", c.Fingerprint)
			}
		}
		if st := cold.Stats(); st.DiskHits != uint64(len(cells)) {
			t.Fatalf("cold lookup stats: %+v", st)
		}
	})
	t.Logf("cold lookup of %d cells: %.0f B, %.1f allocs", len(cells), gotB, gotAllocs)
	if gotB > maxBytes || gotAllocs > maxAllocs {
		t.Errorf("cold lookup of %d cells allocates %.0f B in %.1f allocs, budget %.0f B in %.0f",
			len(cells), gotB, gotAllocs, maxBytes, maxAllocs)
	}
}
