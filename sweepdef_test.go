package destset_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"destset"
	"destset/internal/coherence"
	"destset/internal/workload"
)

// TestSweepDefRoundTripPreservesPlan is the wire contract: a def
// marshaled, shipped and unmarshaled computes the identical plan
// fingerprint — what lets a distributed worker agree with its
// coordinator cell for cell.
func TestSweepDefRoundTripPreservesPlan(t *testing.T) {
	defs := map[string]destset.SweepDef{
		"trace": destset.NewTraceSweepDef(
			[]destset.EngineSpec{
				{Protocol: destset.ProtocolSnooping},
				destset.SpecForPolicy(destset.Group),
				{Protocol: destset.ProtocolMulticast, PolicyName: "owner", Label: "custom-label"},
			},
			[]destset.WorkloadSpec{
				{Name: "oltp", Warm: 500, Measure: 500},
				{Name: "ocean"},
			},
			destset.WithSeeds(1, 5),
			destset.WithInterval(250),
		),
		"timing": destset.NewTimingSweepDef(
			[]destset.SimSpec{
				{Protocol: destset.ProtocolSnooping},
				{Protocol: destset.ProtocolMulticast, Policy: destset.OwnerGroup, UsePolicy: true, LinkBytesPerNs: 2.5},
			},
			[]destset.WorkloadSpec{{Name: "apache", Warm: 300, Measure: 300}},
			destset.WithSeeds(2),
		),
	}
	for name, def := range defs {
		t.Run(name, func(t *testing.T) {
			wantPlan, err := def.Plan()
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(def)
			if err != nil {
				t.Fatal(err)
			}
			var back destset.SweepDef
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatal(err)
			}
			gotPlan, err := back.Plan()
			if err != nil {
				t.Fatal(err)
			}
			if gotPlan.Fingerprint() != wantPlan.Fingerprint() {
				t.Errorf("round-tripped def plan %s, original %s", gotPlan.Fingerprint(), wantPlan.Fingerprint())
			}
			if !reflect.DeepEqual(gotPlan.Cells(), wantPlan.Cells()) {
				t.Error("round-tripped def cells differ")
			}
		})
	}
}

// TestSweepDefRunnerMatchesDirectRunner ties a def-built runner to one
// built directly from the same specs and options: same plan, same
// results.
func TestSweepDefRunnerMatchesDirectRunner(t *testing.T) {
	engines := []destset.EngineSpec{{Protocol: destset.ProtocolDirectory}}
	workloads := []destset.WorkloadSpec{{Name: "barnes-hut", Warm: 300, Measure: 300}}
	opts := []destset.RunnerOption{destset.WithSeeds(3)}

	direct := destset.NewRunner(engines, workloads, opts...)
	def := destset.NewTraceSweepDef(engines, workloads, opts...)
	fromDef, err := def.Runner()
	if err != nil {
		t.Fatal(err)
	}
	dp, err := direct.Plan()
	if err != nil {
		t.Fatal(err)
	}
	fp, err := fromDef.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if dp.Fingerprint() != fp.Fingerprint() {
		t.Fatalf("def runner plan %s, direct runner plan %s", fp.Fingerprint(), dp.Fingerprint())
	}
	want, err := direct.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := fromDef.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("def runner results differ from direct runner results")
	}
}

// TestSweepDefRefusals pins validation: kinds must match their spec
// lists, and unknown kinds fail.
func TestSweepDefRefusals(t *testing.T) {
	if err := (destset.SweepDef{Kind: "mystery"}).Validate(); err == nil || !strings.Contains(err.Error(), "kind") {
		t.Errorf("unknown kind = %v, want refusal", err)
	}
	wrongKind := destset.NewTraceSweepDef(
		[]destset.EngineSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{{Name: "oltp"}},
	)
	if _, err := wrongKind.TimingRunner(); err == nil {
		t.Error("TimingRunner on a trace def should fail")
	}
	mixed := wrongKind
	mixed.Sims = []destset.SimSpec{{Protocol: destset.ProtocolSnooping}}
	if err := mixed.Validate(); err == nil || !strings.Contains(err.Error(), "sim specs") {
		t.Errorf("trace def with sims = %v, want refusal", err)
	}
	bogus := destset.NewTraceSweepDef(
		[]destset.EngineSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{{Name: "no-such-workload"}},
	)
	if err := bogus.Validate(); err == nil {
		t.Error("unknown workload preset should fail validation")
	}
}

// TestSweepDefDatasets pins the pre-announcement: one dataset per
// (workload, seed) at the resolved scale, and Prewarm materializes it in
// the shared store.
func TestSweepDefDatasets(t *testing.T) {
	def := destset.NewTimingSweepDef(
		[]destset.SimSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{
			{Name: "oltp", Warm: 700, Measure: 800},
			{Name: "ocean"}, // inherits the def's defaults
		},
		destset.WithSeeds(1, 2),
		destset.WithWarmup(1000),
		destset.WithMeasure(1100),
	)
	ds, err := def.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 4 {
		t.Fatalf("got %d datasets, want 4", len(ds))
	}
	if ds[0].Warm != 700 || ds[0].Measure != 800 || ds[0].Seed != 1 {
		t.Errorf("explicit-scale dataset = %+v", ds[0])
	}
	if ds[2].Warm != 1000 || ds[2].Measure != 1100 {
		t.Errorf("default-scale dataset = %+v, want def defaults 1000/1100", ds[2])
	}
	// A def with no seeds and no scale lists the runner defaults: seed 1
	// at DefaultWarmMisses/DefaultMeasureMisses.
	bare, err := destset.SweepDef{
		Kind:      destset.PlanKindTiming,
		Sims:      []destset.SimSpec{{Protocol: destset.ProtocolSnooping}},
		Workloads: []destset.WorkloadSpec{{Name: "oltp"}},
	}.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(bare) != 1 || bare[0].Seed != 1 || bare[0].Warm != destset.DefaultWarmMisses || bare[0].Measure != destset.DefaultMeasureMisses {
		t.Errorf("defaults-only def lists %+v, want seed 1 at %d/%d", bare, destset.DefaultWarmMisses, destset.DefaultMeasureMisses)
	}
	// A content key is derived from the dataset's fields: a decoded
	// dataset has its listed key, and one whose fields change has the
	// changed dataset's key.
	key := func(sd destset.SweepDataset) string {
		t.Helper()
		k, err := sd.ContentKey()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	raw, err := json.Marshal(ds[0])
	if err != nil {
		t.Fatal(err)
	}
	var back destset.SweepDataset
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if key(back) != key(ds[0]) {
		t.Errorf("decoded dataset's content key %s, listed %s", key(back), key(ds[0]))
	}
	for name, change := range map[string]func(*destset.SweepDataset){
		"seed":     func(sd *destset.SweepDataset) { sd.Seed = 7 },
		"measure":  func(sd *destset.SweepDataset) { sd.Measure = 801 },
		"workload": func(sd *destset.SweepDataset) { sd.Workload.Name = "ocean" },
	} {
		for _, sd := range []destset.SweepDataset{ds[0], back} {
			changed := sd
			change(&changed)
			fresh := destset.SweepDataset{Workload: changed.Workload, Seed: changed.Seed, Warm: changed.Warm, Measure: changed.Measure}
			if key(changed) == key(sd) || key(changed) != key(fresh) {
				t.Errorf("dataset with a changed %s has content key %s, want the changed dataset's %s", name, key(changed), key(fresh))
			}
		}
	}
	before := destset.DatasetCacheStats()
	if err := ds[0].Prewarm(); err != nil {
		t.Fatal(err)
	}
	after := destset.DatasetCacheStats()
	if after.Generations == before.Generations && after.MemHits == before.MemHits && after.DiskHits == before.DiskHits {
		t.Error("Prewarm touched no store tier")
	}
}

// TestWithCellsSubset pins the explicit-subset entry point: running an
// arbitrary (non-round-robin) index subset yields exactly those cells of
// the full run, an empty list runs none, and invalid subsets fail.
func TestWithCellsSubset(t *testing.T) {
	engines := []destset.EngineSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
	}
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 300, Measure: 300}}
	seeds := destset.WithSeeds(1, 2, 3)

	full, err := destset.NewRunner(engines, workloads, seeds).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 6 {
		t.Fatalf("full run has %d cells, want 6", len(full))
	}
	subset := []int{0, 3, 4} // not a round-robin residue class
	got, err := destset.NewRunner(engines, workloads, seeds, destset.WithCells(subset)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := []destset.RunResult{full[0], full[3], full[4]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("subset run = %+v\nwant %+v", got, want)
	}

	for name, bad := range map[string][]int{
		"out of range": {0, 99},
		"duplicate":    {1, 1},
		"unsorted":     {3, 0},
	} {
		_, err := destset.NewRunner(engines, workloads, seeds, destset.WithCells(bad)).Run(context.Background())
		if err == nil {
			t.Errorf("%s subset should fail", name)
		}
	}
	// An empty list is a shard with no cells, not the whole plan.
	none, err := destset.NewRunner(engines, workloads, seeds, destset.WithCells([]int{})).Run(context.Background())
	if err != nil || len(none) != 0 {
		t.Errorf("WithCells([]int{}) ran %d of %d cells (err %v), want none", len(none), len(full), err)
	}

	// The timing runner honors the same subset contract.
	sims := []destset.SimSpec{{Protocol: destset.ProtocolSnooping}, {Protocol: destset.ProtocolDirectory}}
	tw := []destset.WorkloadSpec{{Name: "oltp", Warm: 200, Measure: 200}}
	tfull, err := destset.NewTimingRunner(sims, tw, seeds).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tgot, err := destset.NewTimingRunner(sims, tw, seeds, destset.WithCells([]int{1, 5})).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	twant := []destset.TimingResult{tfull[1], tfull[5]}
	if !reflect.DeepEqual(tgot, twant) {
		t.Error("timing subset run differs from the full run's cells")
	}
	tnone, err := destset.NewTimingRunner(sims, tw, seeds, destset.WithCells([]int{})).Run(context.Background())
	if err != nil || len(tnone) != 0 {
		t.Errorf("timing WithCells([]int{}) ran %d of %d cells (err %v), want none", len(tnone), len(tfull), err)
	}
}

// TestSweepDefRefusesInvalidComposedParams pins Validate's new Params
// check: malformed imported and composed parameter sets are rejected at
// the def boundary, before any worker leases cells from them.
func TestSweepDefRefusesInvalidComposedParams(t *testing.T) {
	engines := []destset.EngineSpec{{Protocol: destset.ProtocolSnooping}}
	cases := map[string]destset.WorkloadParams{
		"imported bad hash": {
			Name: "imp", Nodes: 4, MissesPer1000Instr: 1,
			Import: workload.Import{Format: "csv", SHA256: "short", Records: 10},
		},
		"imported bad format": {
			Name: "imp", Nodes: 4, MissesPer1000Instr: 1,
			Import: workload.Import{Format: "parquet", SHA256: strings.Repeat("a", 64), Records: 10},
		},
		"regulated import": {
			Name: "imp", Nodes: 4, MissesPer1000Instr: 1,
			Import:   workload.Import{Format: "csv", SHA256: strings.Repeat("a", 64), Records: 10},
			Regulate: workload.Regulation{TargetBytesPer1K: 100, Mu: 0.1, MaxThrottle: 2},
		},
		"empty tenant list": {
			Name: "mix", Nodes: 4, MissesPer1000Instr: 1,
			Tenants: []workload.Params{{Name: "only", Nodes: 4}},
		},
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			p := p
			def := destset.NewTraceSweepDef(engines, []destset.WorkloadSpec{{Params: &p}})
			if err := def.Validate(); err == nil {
				t.Error("Validate accepted invalid composed params")
			}
		})
	}
}

// TestMalformedL2IsRefused: an L2 override that would build no oracle is
// an error naming the workload, from Validate and from a sweep's Run,
// instead of a panic in the sweep worker that generates its dataset.
func TestMalformedL2IsRefused(t *testing.T) {
	engines := []destset.EngineSpec{{Protocol: destset.ProtocolSnooping}}
	for name, mutate := range map[string]func(*destset.WorkloadParams){
		"set count not a power of two": func(p *destset.WorkloadParams) { p.L2.L2.SizeBytes = 3000 },
		"zero ways":                    func(p *destset.WorkloadParams) { p.L2.L2.Ways = 0 },
		"other node count":             func(p *destset.WorkloadParams) { p.L2.Nodes = 4 },
	} {
		t.Run(name, func(t *testing.T) {
			p, err := destset.NewWorkload("oltp", 1)
			if err != nil {
				t.Fatal(err)
			}
			p.L2 = coherence.DefaultConfig()
			mutate(&p)
			if err := p.Validate(); err == nil || !strings.Contains(err.Error(), `"oltp"`) {
				t.Errorf("Validate = %v, want an error naming the workload", err)
			}
			def := destset.NewTraceSweepDef(engines, []destset.WorkloadSpec{{Params: &p, Warm: 1000, Measure: 1000}})
			r, err := def.Runner()
			if err == nil {
				_, err = r.Run(context.Background())
			}
			if err == nil || !strings.Contains(err.Error(), `"oltp"`) {
				t.Errorf("sweep = %v, want an error naming the workload", err)
			}
		})
	}
}

// TestMalformedIndexingIsRefused: a predictor indexing the tables cannot
// honour — a macroblock size that is negative or not a multiple of the
// 64-byte block, or an unknown index mode — fails Validate, and both
// runners refuse a spec carrying it with an error that names the spec,
// instead of running it under a name it does not honour.
func TestMalformedIndexingIsRefused(t *testing.T) {
	w := []destset.WorkloadSpec{{Name: "oltp", Warm: 1000, Measure: 1000}}
	for name, ix := range map[string]destset.Indexing{
		"100-byte macroblock":  {Mode: destset.ByBlock, MacroblockBytes: 100},
		"1000-byte macroblock": {Mode: destset.ByBlock, MacroblockBytes: 1000},
		"negative macroblock":  {Mode: destset.ByBlock, MacroblockBytes: -64},
		"unknown index mode":   {Mode: 9, MacroblockBytes: 1024},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := destset.DefaultPredictorConfig(destset.Group, 16)
			cfg.Indexing = ix
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepts %+v", ix)
			}
			cfg.Nodes = 0
			engine := destset.EngineSpec{Protocol: destset.ProtocolMulticast, Predictor: &cfg, Label: "bad-index"}
			if _, err := destset.NewRunner([]destset.EngineSpec{engine}, w).Run(context.Background()); err == nil || !strings.Contains(err.Error(), `"bad-index"`) {
				t.Errorf("trace sweep = %v, want an error naming the spec", err)
			}
			sim := destset.SimSpec{Protocol: destset.ProtocolMulticast, Predictor: &cfg, Label: "bad-index"}
			if _, err := destset.NewTimingRunner([]destset.SimSpec{sim}, w).Run(context.Background()); err == nil || !strings.Contains(err.Error(), `"bad-index"`) {
				t.Errorf("timing sweep = %v, want an error naming the spec", err)
			}
		})
	}
}

// TestSweepDefComposedRoundTrip pins the wire form of the new composed
// parameter kinds: a def carrying phased, tenant-mix, regulated and
// imported Params survives JSON unchanged — same plan fingerprint, and
// for the resolvable kinds the same dataset content keys.
func TestSweepDefComposedRoundTrip(t *testing.T) {
	phased, err := workload.Preset("phased", 0)
	if err != nil {
		t.Fatal(err)
	}
	mix, err := workload.Preset("tenant-mix", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := workload.Preset("regulated", 0)
	if err != nil {
		t.Fatal(err)
	}
	imp := workload.Params{
		Name: "imp", Nodes: 4, MissesPer1000Instr: 2.5,
		Import: workload.Import{Format: "csv", SHA256: strings.Repeat("ab", 32), Records: 1000},
	}
	def := destset.NewTraceSweepDef(
		[]destset.EngineSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{
			{Params: &phased, Warm: 100, Measure: 100},
			{Params: &mix, Warm: 100, Measure: 100},
			{Params: &reg, Warm: 100, Measure: 100},
			{Params: &imp, Warm: 100, Measure: 100},
		},
		destset.WithSeeds(3),
	)
	wantPlan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	wantDatasets, err := def.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(def)
	if err != nil {
		t.Fatal(err)
	}
	var back destset.SweepDef
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	gotPlan, err := back.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if gotPlan.Fingerprint() != wantPlan.Fingerprint() {
		t.Errorf("round-tripped plan %s, original %s", gotPlan.Fingerprint(), wantPlan.Fingerprint())
	}
	gotDatasets, err := back.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantDatasets {
		want, err := wantDatasets[i].ContentKey()
		if err != nil {
			t.Fatal(err)
		}
		got, err := gotDatasets[i].ContentKey()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("dataset %d content key %s, original %s", i, got, want)
		}
	}
	// The imported dataset's key must not vary with the cell seed.
	moved := wantDatasets[3]
	moved.Seed = 99
	k1, err := wantDatasets[3].ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := moved.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Error("cell seed perturbed an imported dataset's content key")
	}
}

// TestBadPredictorConfigFailsValidation: an explicit predictor
// configuration that no bank can be built from is a validation error
// from the Runner, the TimingRunner and a sweep definition that went
// through JSON, naming the spec, not a panic in a sweep worker.
func TestBadPredictorConfigFailsValidation(t *testing.T) {
	group := func(edit func(*destset.PredictorConfig)) *destset.PredictorConfig {
		cfg := destset.DefaultPredictorConfig(destset.Group, 0)
		edit(&cfg)
		return &cfg
	}
	bad := map[string]struct {
		cfg  *destset.PredictorConfig
		want string
	}{
		"entries not a multiple of ways": {cfg: group(func(c *destset.PredictorConfig) { c.Entries = 1002 }), want: "not a multiple of ways"},
		"set count not a power of two":   {cfg: group(func(c *destset.PredictorConfig) { c.Entries = 1000 }), want: "set count 250 is not a power of two"},
		"negative entries":               {cfg: group(func(c *destset.PredictorConfig) { c.Entries = -8 }), want: "negative entries"},
		"sticky size not a power of two": {cfg: &destset.PredictorConfig{Policy: destset.StickySpatial, Entries: 100}, want: "StickySpatial entries 100"},
		"unknown policy":                 {cfg: &destset.PredictorConfig{Policy: destset.Policy(42)}, want: "unknown policy"},
		"too many nodes in the config":   {cfg: group(func(c *destset.PredictorConfig) { c.Nodes = 65 }), want: "bad node count 65"},
		"negative nodes in the config":   {cfg: group(func(c *destset.PredictorConfig) { c.Nodes = -1 }), want: "bad node count -1"},
		"rollover beyond the counter":    {cfg: group(func(c *destset.PredictorConfig) { c.GroupRollover = 1 << 32 }), want: "rollover limit"},
	}
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 100}}
	for name, c := range bad {
		t.Run(name, func(t *testing.T) {
			engine := destset.EngineSpec{Protocol: destset.ProtocolMulticast, Predictor: c.cfg, Label: "bad-engine"}
			simSpec := destset.SimSpec{Protocol: destset.ProtocolMulticast, Predictor: c.cfg, Label: "bad-sim"}
			check := func(what string, err error, label string) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), label) {
					t.Errorf("%s: err = %v, want one naming %q and containing %q", what, err, label, c.want)
				}
			}
			_, err := destset.NewRunner([]destset.EngineSpec{engine}, workloads).Run(context.Background())
			check("Runner", err, "bad-engine")
			_, err = destset.NewTimingRunner([]destset.SimSpec{simSpec}, workloads).Run(context.Background())
			check("TimingRunner", err, "bad-sim")
			for kind, def := range map[string]destset.SweepDef{
				"trace def":  destset.NewTraceSweepDef([]destset.EngineSpec{engine}, workloads),
				"timing def": destset.NewTimingSweepDef([]destset.SimSpec{simSpec}, workloads),
			} {
				raw, err := json.Marshal(def)
				if err != nil {
					t.Fatal(err)
				}
				var back destset.SweepDef
				if err := json.Unmarshal(raw, &back); err != nil {
					t.Fatal(err)
				}
				label := "bad-engine"
				if kind == "timing def" {
					label = "bad-sim"
				}
				check(kind, back.Validate(), label)
			}
		})
	}
	// A built-in policy chosen by name builds from the configuration, so
	// its geometry is checked. A registered custom policy reads the
	// configuration its own way, so only its node count is.
	odd := group(func(c *destset.PredictorConfig) { c.Entries = 1000 })
	builtin := destset.EngineSpec{Protocol: destset.ProtocolMulticast, PolicyName: "owner", Predictor: odd}
	if _, err := destset.NewRunner([]destset.EngineSpec{builtin}, workloads).Run(context.Background()); err == nil {
		t.Error("a built-in PolicyName must check the configuration's geometry")
	}
	name := runName("validation-minimal")
	if err := destset.RegisterPolicy(name, func(cfg destset.PredictorConfig) destset.Predictor {
		return destset.NewPredictor(destset.PredictorConfig{Policy: destset.Minimal, Nodes: cfg.Nodes})
	}); err != nil {
		t.Fatal(err)
	}
	custom := destset.EngineSpec{Protocol: destset.ProtocolMulticast, PolicyName: name, Predictor: odd}
	if _, err := destset.NewRunner([]destset.EngineSpec{custom}, workloads).Run(context.Background()); err != nil {
		t.Errorf("custom policy: %v", err)
	}
	custom.Predictor = group(func(c *destset.PredictorConfig) { c.Entries, c.Nodes = 1000, 65 })
	if _, err := destset.NewRunner([]destset.EngineSpec{custom}, workloads).Run(context.Background()); err == nil || !strings.Contains(err.Error(), "bad node count 65") {
		t.Errorf("custom policy over a 65-node configuration: %v, want a node count error", err)
	}
}

// TestPredictorNodesMustMatchSystem: an explicit predictor
// configuration's Nodes is 0 to inherit the workload's node count, and
// any other value must equal it. A mismatch is an error naming the spec
// from both runners and for both kinds of bank (the built-in one and one
// built by a policy chosen by name), not a panic in a sweep worker or a
// bank silently resized.
func TestPredictorNodesMustMatchSystem(t *testing.T) {
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 100}} // 16 nodes
	type outcome struct {
		runner, label string
		err           error
	}
	run := func(policyName string, nodes int) []outcome {
		cfg := destset.DefaultPredictorConfig(destset.Group, nodes)
		engine := destset.EngineSpec{Protocol: destset.ProtocolMulticast, PolicyName: policyName, Predictor: &cfg, Label: "the-engine"}
		simSpec := destset.SimSpec{Protocol: destset.ProtocolMulticast, PolicyName: policyName, Predictor: &cfg, Label: "the-sim"}
		_, traceErr := destset.NewRunner([]destset.EngineSpec{engine}, workloads).Run(context.Background())
		_, timingErr := destset.NewTimingRunner([]destset.SimSpec{simSpec}, workloads).Run(context.Background())
		return []outcome{{"Runner", "the-engine", traceErr}, {"TimingRunner", "the-sim", timingErr}}
	}
	for _, policyName := range []string{"", "group"} {
		for _, nodes := range []int{0, 16} {
			for _, r := range run(policyName, nodes) {
				if r.err != nil {
					t.Errorf("policy %q, predictor Nodes %d on 16 nodes: %s: %v", policyName, nodes, r.runner, r.err)
				}
			}
		}
		for _, nodes := range []int{8, 32} {
			want := fmt.Sprintf("predictor config has %d nodes, but the system has 16", nodes)
			for _, r := range run(policyName, nodes) {
				if r.err == nil || !strings.Contains(r.err.Error(), want) || !strings.Contains(r.err.Error(), r.label) {
					t.Errorf("policy %q, predictor Nodes %d on 16 nodes: %s err = %v, want one naming %q and containing %q",
						policyName, nodes, r.runner, r.err, r.label, want)
				}
			}
		}
	}
}
