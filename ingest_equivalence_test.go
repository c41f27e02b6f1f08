package destset_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"destset"
	"destset/internal/dataset"
	"destset/internal/ingest"
	"destset/internal/workload"
)

// syntheticCSV deterministically fabricates an external trace: a few
// hundred lines of reads and writes from 8 CPUs over a small shared
// block pool plus per-CPU private blocks, with explicit PCs and gaps.
func syntheticCSV(lines int) string {
	var sb strings.Builder
	sb.WriteString("addr,cpu,op,pc,gap\n")
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < lines; i++ {
		r := next()
		cpu := int(r % 8)
		var addr uint64
		if r&0x100 != 0 {
			addr = 0x10000 + (r>>9%64)*64 // shared pool
		} else {
			addr = 0x400000 + uint64(cpu)*0x10000 + (r>>9%128)*64 // private
		}
		op := "R"
		if r&0x200 != 0 {
			op = "W"
		}
		fmt.Fprintf(&sb, "0x%x,%d,%s,0x%x,%d\n", addr, cpu, op, 0x70000+4*(r>>20%512), 100+r>>40%300)
	}
	return sb.String()
}

// importedSpec imports the synthetic trace, installs its dataset file
// under the active dataset directory, and returns the workload spec
// every sweep resolves it by.
func importedSpec(t *testing.T) destset.WorkloadSpec {
	t.Helper()
	ds, err := ingest.Import(strings.NewReader(syntheticCSV(900)), ingest.FormatCSV,
		ingest.Options{Name: "imported-mix", Warm: 300})
	if err != nil {
		t.Fatal(err)
	}
	dir := destset.DatasetDir()
	if dir == "" {
		t.Fatal("importedSpec needs an active dataset directory")
	}
	p := ds.Params()
	key := dataset.KeyOf(p, ds.Warm(), ds.Measure())
	if err := dataset.WriteFile(key.Path(dir), ds); err != nil {
		t.Fatal(err)
	}
	return destset.WorkloadSpec{
		Name:    p.Name,
		Params:  &p,
		Warm:    ds.Warm(),
		Measure: ds.Measure(),
	}
}

// composedSpecs returns the three composition presets as Params-based
// specs at a small scale.
func composedSpecs(t *testing.T, warm, measure int) []destset.WorkloadSpec {
	t.Helper()
	specs := make([]destset.WorkloadSpec, 0, 3)
	for _, name := range []string{"phased", "tenant-mix", "regulated"} {
		p, err := workload.Preset(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, destset.WorkloadSpec{
			Name: name, Params: &p, Warm: warm, Measure: measure,
		})
	}
	return specs
}

// TestImportedAndComposedSweepEquivalence is the tentpole acceptance
// check on the trace-driven side: an imported CSV trace and the three
// composed workload kinds run through the Runner byte-identically at
// every parallelism, across every shard split merged back together, and
// across seeds (the imported dataset is seed-invariant by construction);
// a warm rerun against the spilled dataset directory generates nothing.
func TestImportedAndComposedSweepEquivalence(t *testing.T) {
	defer func() {
		destset.SetDatasetDir("")
		destset.PurgeDatasets()
	}()
	if err := destset.SetDatasetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	destset.PurgeDatasets()

	engines := []destset.EngineSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
		destset.SpecForPolicy(destset.OwnerGroup),
	}
	workloads := append([]destset.WorkloadSpec{importedSpec(t)}, composedSpecs(t, 600, 600)...)
	baseOpts := func(extra ...destset.RunnerOption) []destset.RunnerOption {
		return append([]destset.RunnerOption{destset.WithSeeds(3, 4)}, extra...)
	}

	before := destset.DatasetCacheStats()
	full, err := destset.NewRunner(engines, workloads, baseOpts(destset.WithParallelism(1))...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, full)
	if len(full) != len(engines)*len(workloads)*2 {
		t.Fatalf("full run returned %d cells", len(full))
	}
	mid := destset.DatasetCacheStats()
	// 3 composed workloads × 2 seeds generate; the imported dataset may
	// never generate — both its seed-cells load the one installed file.
	if gens := mid.Generations - before.Generations; gens != 6 {
		t.Errorf("first run generated %d datasets, want 6 (imported must come from disk)", gens)
	}

	for _, par := range []int{1, 4} {
		res, err := destset.NewRunner(engines, workloads, baseOpts(destset.WithParallelism(par))...).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mustJSON(t, res), want) {
			t.Errorf("parallelism %d diverges from the reference run", par)
		}
	}

	plan := planOf(t, destset.NewRunner(engines, workloads, baseOpts()...))
	for _, shards := range []int{2, 3} {
		for _, par := range []int{1, 4} {
			merged := runShards(t, plan, shards, func(cells []int) ([]destset.RunResult, error) {
				return destset.NewRunner(engines, workloads,
					baseOpts(destset.WithParallelism(par), destset.WithCells(cells))...).Run(context.Background())
			})
			if !bytes.Equal(mustJSON(t, merged), want) {
				t.Errorf("%d shards at parallelism %d merge differently from the full run", shards, par)
			}
		}
	}

	// Warm rerun: drop the memory tier; every dataset — composed spills
	// and the imported install — must come back from disk, zero
	// generations.
	destset.PurgeDatasets()
	pre := destset.DatasetCacheStats()
	res, err := destset.NewRunner(engines, workloads, baseOpts()...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	post := destset.DatasetCacheStats()
	if gens := post.Generations - pre.Generations; gens != 0 {
		t.Errorf("warm rerun generated %d datasets, want 0", gens)
	}
	if !bytes.Equal(mustJSON(t, res), want) {
		t.Error("warm-rerun results differ")
	}
}

// TestImportedAndComposedTimingEquivalence is the execution-driven half:
// the same workload set through the TimingRunner, sharded and merged,
// byte-identical to the unsharded run.
func TestImportedAndComposedTimingEquivalence(t *testing.T) {
	defer func() {
		destset.SetDatasetDir("")
		destset.PurgeDatasets()
	}()
	if err := destset.SetDatasetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	destset.PurgeDatasets()

	sims := []destset.SimSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
		{Protocol: destset.ProtocolMulticast, Policy: destset.OwnerGroup, UsePolicy: true},
	}
	workloads := append([]destset.WorkloadSpec{importedSpec(t)}, composedSpecs(t, 500, 500)...)

	full, err := destset.NewTimingRunner(sims, workloads, destset.WithParallelism(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, full)
	if len(full) != len(sims)*len(workloads) {
		t.Fatalf("full run returned %d cells", len(full))
	}

	plan := planOf(t, destset.NewTimingRunner(sims, workloads))
	for _, shards := range []int{2, 3} {
		for _, par := range []int{1, 4} {
			merged := runShards(t, plan, shards, func(cells []int) ([]destset.TimingResult, error) {
				return destset.NewTimingRunner(sims, workloads,
					destset.WithParallelism(par), destset.WithCells(cells)).Run(context.Background())
			})
			if !bytes.Equal(mustJSON(t, merged), want) {
				t.Errorf("%d shards at parallelism %d merge differently from the full run", shards, par)
			}
		}
	}
}

// TestRegulatedDatasetKeepsThrottledGaps pins the regulation/dataset
// contract: Generate must not rescale a regulated workload's gaps back
// to the nominal rate — the throttling is the data.
func TestRegulatedDatasetKeepsThrottledGaps(t *testing.T) {
	reg, err := workload.Preset("regulated", 6)
	if err != nil {
		t.Fatal(err)
	}
	base := reg
	base.Regulate = workload.Regulation{}
	dsReg, err := dataset.Generate(reg, 0, 8000)
	if err != nil {
		t.Fatal(err)
	}
	dsBase, err := dataset.Generate(base, 0, 8000)
	if err != nil {
		t.Fatal(err)
	}
	var regGap, baseGap uint64
	for i := 0; i < dsReg.Len(); i++ {
		regGap += uint64(dsReg.RecordAt(i).Gap)
		baseGap += uint64(dsBase.RecordAt(i).Gap)
	}
	if regGap <= baseGap {
		t.Errorf("regulated dataset total gap %d not above unregulated %d: throttling was rescaled away", regGap, baseGap)
	}
}
