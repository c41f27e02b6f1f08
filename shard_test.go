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

	plan := planOf(t, destset.NewRunner(engines, workloads, baseOpts()...))
	for _, shards := range []int{1, 2, 3, 5} {
		for _, par := range []int{1, 4} {
			merged := runShards(t, plan, shards, func(cells []int) ([]destset.RunResult, error) {
				return destset.NewRunner(engines, workloads,
					baseOpts(destset.WithParallelism(par), destset.WithCells(cells))...).Run(context.Background())
			})
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

	plan := planOf(t, destset.NewTimingRunner(sims, workloads))
	for _, shards := range []int{1, 2, 3} {
		for _, par := range []int{1, 4} {
			merged := runShards(t, plan, shards, func(cells []int) ([]destset.TimingResult, error) {
				return destset.NewTimingRunner(sims, workloads,
					destset.WithParallelism(par), destset.WithCells(cells)).Run(context.Background())
			})
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
	if got := mk(destset.WithSeeds(1, 2), destset.WithCells([]int{1, 3})).Fingerprint(); got != base.Fingerprint() {
		t.Error("WithCells changed the plan fingerprint; all shards must share one plan")
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

// runShards runs every shard of plan's shards-way split through run,
// which gets the shard's cell list as a -shard process hands it to
// WithCells, and places each shard's results at their plan indices.
func runShards[T any](t *testing.T, plan *destset.SweepPlan, shards int, run func(cells []int) ([]T, error)) []T {
	t.Helper()
	merged := make([]T, plan.Len())
	for s := 0; s < shards; s++ {
		cells, err := plan.ShardIndices(s, shards)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run(cells)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", s, shards, err)
		}
		if len(res) != len(cells) {
			t.Fatalf("shard %d/%d returned %d results for %d cells", s, shards, len(res), len(cells))
		}
		for k, i := range cells {
			merged[i] = res[k]
		}
	}
	return merged
}

// TestShardValidation pins the split's failure mode: ShardIndices
// refuses a shard outside its split.
func TestShardValidation(t *testing.T) {
	engines := []destset.EngineSpec{{Protocol: destset.ProtocolSnooping}}
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 50, Measure: 50}}
	plan := planOf(t, destset.NewRunner(engines, workloads))
	for _, bad := range [][2]int{{2, 2}, {-1, 2}, {1, 1}, {1, 0}} {
		if cells, err := plan.ShardIndices(bad[0], bad[1]); err == nil {
			t.Errorf("ShardIndices(%d, %d) = %v, want an error", bad[0], bad[1], cells)
		}
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
// figure harness: every shard of experiments.TimingSweep, placed at its
// plan indices, yields exactly the cells Figure 7's own runner computes.
func TestTimingSweepMatchesFigure7(t *testing.T) {
	opt := experiments.QuickOptions()
	opt.Workloads = []string{"oltp"}
	opt.TimedWarmMisses, opt.TimedMisses = 1000, 1000

	full, err := experiments.TimingSweep(context.Background(), opt, destset.SimpleCPU, nil)
	if err != nil {
		t.Fatal(err)
	}
	def, err := experiments.TimingSweepDef(opt, destset.SimpleCPU)
	if err != nil {
		t.Fatal(err)
	}
	plan := planOf(t, def)
	if plan.Len() != len(full) {
		t.Fatalf("plan has %d cells, sweep returned %d", plan.Len(), len(full))
	}
	merged := runShards(t, plan, 2, func(cells []int) ([]destset.TimingResult, error) {
		return experiments.TimingSweep(context.Background(), opt, destset.SimpleCPU, cells)
	})
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
