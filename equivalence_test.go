package destset_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"destset"
)

// TestSharedDatasetSweepMatchesRegeneratingSweep is the acceptance check
// for the generate-once/replay-many path: a Runner over Name-based specs
// (which replay the shared dataset) must produce byte-identical results
// to cells that each regenerate the miss stream from scratch — the
// pre-dataset-store behavior — at every parallelism.
func TestSharedDatasetSweepMatchesRegeneratingSweep(t *testing.T) {
	const warm, measure = 2000, 2000
	engines := []destset.EngineSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
		destset.SpecForPolicy(destset.Group),
		destset.SpecForPolicy(destset.OwnerGroup),
		{Protocol: destset.ProtocolPredictiveDirectory, PolicyName: "owner"},
	}
	seeds := []uint64{3, 4}
	var workloads []destset.WorkloadSpec
	for _, name := range []string{"oltp", "ocean"} {
		workloads = append(workloads, destset.WorkloadSpec{Name: name, Warm: warm, Measure: measure})
	}

	// The old per-cell path, in plan order: every cell opens a fresh
	// generator, pays the oracle for the whole stream again and runs
	// each miss through its engine's Process.
	var regen []destset.RunResult
	for _, w := range workloads {
		for _, e := range engines {
			for _, seed := range seeds {
				g, err := destset.NewWorkloadGenerator(w, seed)
				if err != nil {
					t.Fatal(err)
				}
				eng, err := e.NewEngine(16)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < warm; i++ {
					eng.Process(g.Next())
				}
				var totals destset.Totals
				for i := 0; i < measure; i++ {
					totals.Add(eng.Process(g.Next()))
				}
				regen = append(regen, destset.RunResult{
					Engine: e.DisplayLabel(), Workload: w.Name, Seed: seed, Totals: totals,
					Tradeoff: destset.TradeoffResult{
						Config:             eng.Name(),
						RequestMsgsPerMiss: totals.RequestMsgsPerMiss(),
						IndirectionPercent: totals.IndirectionPercent(),
						BytesPerMiss:       totals.BytesPerMiss(),
					},
				})
			}
		}
	}
	want, err := json.Marshal(regen)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		res, err := destset.NewRunner(engines, workloads,
			destset.WithSeeds(seeds...),
			destset.WithParallelism(par),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shared-dataset sweep at parallelism %d diverges from regenerating cells:\n%s\nvs\n%s", par, got, want)
		}
	}
}
