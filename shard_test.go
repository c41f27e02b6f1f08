package destset_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"destset"
	"destset/internal/experiments"
	"destset/internal/workload"
)

// table2Workloads builds small-scale Name-based specs over the paper's
// full Table 2 workload set (other tests may register extra presets, so
// the six are named explicitly).
func table2Workloads(t *testing.T, warm, measure int) []destset.WorkloadSpec {
	t.Helper()
	names := []string{"apache", "barnes-hut", "ocean", "oltp", "slashcode", "specjbb"}
	specs := make([]destset.WorkloadSpec, len(names))
	for i, n := range names {
		if _, err := workload.Preset(n, 0); err != nil {
			t.Fatal(err)
		}
		specs[i] = destset.WorkloadSpec{Name: n, Warm: warm, Measure: measure}
	}
	return specs
}

// TestRunnerShardUnionEquivalence is the sharded-execution acceptance
// check for the trace-driven Runner: for every shard split, running
// each shard independently (at parallelism 1 and N) and merging
// reproduces the unsharded run bit for bit, over the Table 2 workload
// set.
func TestRunnerShardUnionEquivalence(t *testing.T) {
	engines := []destset.EngineSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
		destset.SpecForPolicy(destset.Group),
		destset.SpecForPolicy(destset.OwnerGroup),
	}
	workloads := table2Workloads(t, 800, 800)
	baseOpts := func(extra ...destset.RunnerOption) []destset.RunnerOption {
		return append([]destset.RunnerOption{destset.WithSeeds(2, 7)}, extra...)
	}

	full, err := destset.NewRunner(engines, workloads, baseOpts(destset.WithParallelism(1))...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, full)
	if len(full) != len(engines)*len(workloads)*2 {
		t.Fatalf("full run returned %d cells", len(full))
	}

	for _, shards := range []int{1, 2, 3, 5} {
		for _, par := range []int{1, 4} {
			parts := make([][]destset.RunResult, shards)
			for s := 0; s < shards; s++ {
				res, err := destset.NewRunner(engines, workloads,
					baseOpts(destset.WithParallelism(par), destset.WithShard(s, shards))...,
				).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				parts[s] = res
			}
			merged, err := destset.MergeResults(planOf(t, destset.NewRunner(engines, workloads, baseOpts()...)), parts)
			if err != nil {
				t.Fatalf("%d shards, parallelism %d: %v", shards, par, err)
			}
			if got := mustJSON(t, merged); !bytes.Equal(got, want) {
				t.Errorf("%d shards at parallelism %d merge differently from the full run", shards, par)
			}
		}
	}
}

// TestTimingRunnerShardUnionEquivalence is the same property for the
// execution-driven TimingRunner over the Figure 7 protocol
// configurations.
func TestTimingRunnerShardUnionEquivalence(t *testing.T) {
	sims := experiments.TimingSpecs(destset.SimpleCPU)
	workloads := []destset.WorkloadSpec{
		{Name: "oltp", Warm: 1000, Measure: 1000},
		{Name: "barnes-hut", Warm: 1000, Measure: 1000},
	}

	full, err := destset.NewTimingRunner(sims, workloads, destset.WithParallelism(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, full)
	if len(full) != len(sims)*len(workloads) {
		t.Fatalf("full run returned %d cells", len(full))
	}

	for _, shards := range []int{1, 2, 3} {
		for _, par := range []int{1, 4} {
			parts := make([][]destset.TimingResult, shards)
			for s := 0; s < shards; s++ {
				res, err := destset.NewTimingRunner(sims, workloads,
					destset.WithParallelism(par), destset.WithShard(s, shards)).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				parts[s] = res
			}
			merged, err := destset.MergeResults(planOf(t, destset.NewTimingRunner(sims, workloads)), parts)
			if err != nil {
				t.Fatalf("%d shards, parallelism %d: %v", shards, par, err)
			}
			if got := mustJSON(t, merged); !bytes.Equal(got, want) {
				t.Errorf("%d shards at parallelism %d merge differently from the full run", shards, par)
			}
		}
	}
}

// TestPlanStability pins the plan contract sharding rests on: plans are
// pure functions of the runner's configuration, shard-independent, and
// sensitive to every coordinate.
func TestPlanStability(t *testing.T) {
	engines := []destset.EngineSpec{
		{Protocol: destset.ProtocolSnooping},
		destset.SpecForPolicy(destset.Group),
	}
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 100}}
	mk := func(opts ...destset.RunnerOption) *destset.SweepPlan {
		p, err := destset.NewRunner(engines, workloads, opts...).Plan()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := mk(destset.WithSeeds(1, 2))
	if base.Len() != 4 || base.Kind() != destset.PlanKindTrace {
		t.Fatalf("plan: len %d kind %s", base.Len(), base.Kind())
	}
	if got := mk(destset.WithSeeds(1, 2)).Fingerprint(); got != base.Fingerprint() {
		t.Error("identical runners produced different plan fingerprints")
	}
	if got := mk(destset.WithSeeds(1, 2), destset.WithShard(1, 2)).Fingerprint(); got != base.Fingerprint() {
		t.Error("WithShard changed the plan fingerprint; all shards must share one plan")
	}
	if got := mk(destset.WithSeeds(1, 3)).Fingerprint(); got == base.Fingerprint() {
		t.Error("different seeds share a plan fingerprint")
	}
	bigger, err := destset.NewRunner(engines,
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 200}},
		destset.WithSeeds(1, 2)).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if bigger.Fingerprint() == base.Fingerprint() {
		t.Error("different scale shares a plan fingerprint")
	}
	// A spec inheriting the runner default scale fingerprints the
	// resolved scale, not the zero.
	inheritA, err := destset.NewRunner(engines,
		[]destset.WorkloadSpec{{Name: "oltp"}}, destset.WithMeasure(200)).Plan()
	if err != nil {
		t.Fatal(err)
	}
	inheritB, err := destset.NewRunner(engines,
		[]destset.WorkloadSpec{{Name: "oltp"}}, destset.WithMeasure(300)).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if inheritA.Fingerprint() == inheritB.Fingerprint() {
		t.Error("different inherited default scale shares a plan fingerprint")
	}

	// Timing plans with different knob overrides differ too.
	sims := []destset.SimSpec{{Protocol: destset.ProtocolSnooping}}
	tp, err := destset.NewTimingRunner(sims, workloads).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if tp.Kind() != destset.PlanKindTiming {
		t.Errorf("timing plan kind = %s", tp.Kind())
	}
	sims2 := []destset.SimSpec{{Protocol: destset.ProtocolSnooping, LinkBytesPerNs: 2.5}}
	tp2, err := destset.NewTimingRunner(sims2, workloads).Plan()
	if err != nil {
		t.Fatal(err)
	}
	if tp.Fingerprint() == tp2.Fingerprint() {
		t.Error("different sim knobs share a plan fingerprint")
	}
}

// TestShardValidation pins the failure modes: out-of-range shards fail
// at Run, and Merge rejects wrong splits and foreign results.
// planOf returns a runner's sweep plan, failing the test on error.
func planOf(t *testing.T, r interface {
	Plan() (*destset.SweepPlan, error)
}) *destset.SweepPlan {
	t.Helper()
	plan, err := r.Plan()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func TestShardValidation(t *testing.T) {
	engines := []destset.EngineSpec{{Protocol: destset.ProtocolSnooping}}
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 50, Measure: 50}}
	for _, bad := range [][2]int{{2, 2}, {-1, 2}, {1, 1}} {
		r := destset.NewRunner(engines, workloads, destset.WithShard(bad[0], bad[1]))
		if _, err := r.Run(context.Background()); err == nil {
			t.Errorf("WithShard(%d, %d) ran", bad[0], bad[1])
		}
	}

	r := destset.NewRunner(engines, workloads)
	full, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := destset.MergeResults(planOf(t, r), [][]destset.RunResult{full, full}); err == nil {
		t.Error("Merge accepted the full run twice")
	}
	foreign := append([]destset.RunResult(nil), full...)
	foreign[0].Workload = "not-oltp"
	if _, err := destset.MergeResults(planOf(t, r), [][]destset.RunResult{foreign}); err == nil {
		t.Error("Merge accepted a result whose cell is not in the plan")
	}
	merged, err := destset.MergeResults(planOf(t, r), [][]destset.RunResult{full})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mustJSON(t, merged), mustJSON(t, full)) {
		t.Error("single-shard merge is not the identity")
	}
}

// TestColdProcessWithWarmDatasetDirGeneratesNothing is the disk-tier
// acceptance check at the facade: after one process-equivalent has
// populated the dataset directory, a cold run (memory purged, same dir)
// performs zero trace generations — verified by the per-tier
// DatasetCacheStats counters — and produces bit-identical results.
func TestColdProcessWithWarmDatasetDirGeneratesNothing(t *testing.T) {
	defer func() {
		destset.SetDatasetDir("")
		destset.PurgeDatasets()
	}()
	if err := destset.SetDatasetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	destset.PurgeDatasets() // other tests may have warmed the keys we use

	engines := []destset.EngineSpec{
		{Protocol: destset.ProtocolDirectory},
		destset.SpecForPolicy(destset.OwnerGroup),
	}
	workloads := []destset.WorkloadSpec{
		{Name: "oltp", Warm: 600, Measure: 600},
		{Name: "ocean", Warm: 600, Measure: 600},
	}
	run := func() []byte {
		res, err := destset.NewRunner(engines, workloads, destset.WithSeeds(5)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, res)
	}

	before := destset.DatasetCacheStats()
	want := run()
	mid := destset.DatasetCacheStats()
	if gens := mid.Generations - before.Generations; gens != 2 {
		t.Fatalf("warm run generated %d datasets, want 2", gens)
	}

	// "Cold process": drop the memory tier, keep the disk tier.
	if n := destset.PurgeDatasets(); n != 2 {
		t.Fatalf("purged %d datasets, want 2", n)
	}
	got := run()
	after := destset.DatasetCacheStats()
	if gens := after.Generations - mid.Generations; gens != 0 {
		t.Errorf("cold run generated %d datasets, want 0 (disk tier should serve them)", gens)
	}
	if hits := after.DiskHits - mid.DiskHits; hits != 2 {
		t.Errorf("cold run had %d disk hits, want 2", hits)
	}
	if !bytes.Equal(got, want) {
		t.Error("disk-tier results differ from generated results")
	}

	// PurgeDatasetDir drops exactly the spilled files; the next purge
	// of memory then forces regeneration.
	if n, err := destset.PurgeDatasetDir(); err != nil || n != 2 {
		t.Fatalf("PurgeDatasetDir = (%d, %v), want (2, nil)", n, err)
	}
	destset.PurgeDatasets()
	final := run()
	end := destset.DatasetCacheStats()
	if gens := end.Generations - after.Generations; gens != 2 {
		t.Errorf("post-PurgeDatasetDir run generated %d datasets, want 2", gens)
	}
	if !bytes.Equal(final, want) {
		t.Error("regenerated results differ")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTimingSweepMatchesFigure7 ties the sharded entry point to the
// figure harness: merging every shard of experiments.TimingSweep yields
// exactly the cells Figure 7's own runner computes.
func TestTimingSweepMatchesFigure7(t *testing.T) {
	opt := experiments.QuickOptions()
	opt.Workloads = []string{"oltp"}
	opt.TimedWarmMisses, opt.TimedMisses = 1000, 1000

	full, err := experiments.TimingSweep(context.Background(), opt, destset.SimpleCPU, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var parts [][]destset.TimingResult
	for s := 0; s < 2; s++ {
		res, err := experiments.TimingSweep(context.Background(), opt, destset.SimpleCPU, s, 2)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, res)
	}
	plan, err := experiments.TimingSweepPlan(opt, destset.SimpleCPU)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() != len(full) {
		t.Fatalf("plan has %d cells, sweep returned %d", plan.Len(), len(full))
	}
	if len(parts[0])+len(parts[1]) != len(full) {
		t.Fatalf("shards cover %d cells, want %d", len(parts[0])+len(parts[1]), len(full))
	}
	// Interleave (round-robin) and compare.
	merged := make([]destset.TimingResult, len(full))
	for s, part := range parts {
		for k, r := range part {
			merged[s+2*k] = r
		}
	}
	if !bytes.Equal(mustJSON(t, merged), mustJSON(t, full)) {
		t.Error("sharded TimingSweep union differs from the full sweep")
	}
	for i, c := range plan.Cells() {
		if full[i].Sim != c.Engine || full[i].Workload != c.Workload || full[i].Seed != c.Seed {
			t.Fatalf("cell %d: result (%s,%s,%d) vs plan (%s,%s,%d)",
				i, full[i].Sim, full[i].Workload, full[i].Seed, c.Engine, c.Workload, c.Seed)
		}
	}
}
