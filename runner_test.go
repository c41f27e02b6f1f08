package destset_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"destset"
)

// allPolicySpecs is the paper's full policy set: the eight built-in
// prediction policies, routed the way EvaluatePolicy routes them.
func allPolicySpecs() []destset.EngineSpec {
	policies := []destset.Policy{
		destset.Owner, destset.BroadcastIfShared, destset.Group, destset.OwnerGroup,
		destset.StickySpatial, destset.Minimal, destset.Broadcast, destset.Oracle,
	}
	specs := make([]destset.EngineSpec, len(policies))
	for i, p := range policies {
		specs[i] = destset.SpecForPolicy(p)
	}
	return specs
}

func workloadSpecs(warm, measure int) []destset.WorkloadSpec {
	names := destset.Workloads()
	out := make([]destset.WorkloadSpec, 0, len(names))
	paper := map[string]bool{
		"apache": true, "barnes-hut": true, "ocean": true,
		"oltp": true, "slashcode": true, "specjbb": true,
	}
	for _, n := range names {
		if !paper[n] {
			continue // tests in this binary may register extra presets
		}
		out = append(out, destset.WorkloadSpec{Name: n, Warm: warm, Measure: measure})
	}
	return out
}

// TestRunnerFullSweepDeterministic is the acceptance sweep: all eight
// predictor policies across the six paper workloads through a single
// Run call, byte-identical at parallelism 1 and parallelism 4.
func TestRunnerFullSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross-product sweep")
	}
	engines := allPolicySpecs()
	workloads := workloadSpecs(1500, 1500)

	run := func(parallelism int) []byte {
		t.Helper()
		res, err := destset.NewRunner(engines, workloads,
			destset.WithSeeds(1),
			destset.WithParallelism(parallelism),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := len(engines) * len(workloads); len(res) != want {
			t.Fatalf("got %d results, want %d", len(res), want)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	serial := run(1)
	parallel := run(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("results differ between parallelism 1 and 4:\n%s\nvs\n%s", serial, parallel)
	}
}

// TestEvaluatePolicyMatchesSeedMethodology re-derives the seed
// implementation's numbers by hand — same generator stream, same
// engine, serial — and requires EvaluatePolicy (now a Runner wrapper)
// to reproduce them exactly.
func TestEvaluatePolicyMatchesSeedMethodology(t *testing.T) {
	const (
		name    = "oltp"
		seed    = 7
		warm    = 10_000
		measure = 10_000
	)
	for _, policy := range []destset.Policy{destset.Owner, destset.Broadcast, destset.Minimal} {
		params, err := destset.NewWorkload(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := destset.NewGenerator(params)
		if err != nil {
			t.Fatal(err)
		}
		var eng destset.Engine
		switch policy {
		case destset.Broadcast:
			eng = destset.NewSnoopingEngine(params.Nodes)
		case destset.Minimal:
			eng = destset.NewDirectoryEngine()
		default:
			eng = destset.NewMulticastEngine(
				destset.NewPredictorBank(destset.DefaultPredictorConfig(policy, params.Nodes)))
		}
		for i := 0; i < warm; i++ {
			rec, mi := g.Next()
			eng.Process(rec, mi)
		}
		var tot destset.Totals
		for i := 0; i < measure; i++ {
			rec, mi := g.Next()
			tot.Add(eng.Process(rec, mi))
		}
		want := destset.TradeoffResult{
			Config:             eng.Name(),
			RequestMsgsPerMiss: tot.RequestMsgsPerMiss(),
			IndirectionPercent: tot.IndirectionPercent(),
			BytesPerMiss:       tot.BytesPerMiss(),
		}
		got, err := destset.EvaluatePolicy(name, policy, seed, warm, measure)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: EvaluatePolicy = %+v, want seed-equivalent %+v", policy, got, want)
		}
	}
}

func TestRunnerCancellationReturnsPartialResults(t *testing.T) {
	engines := allPolicySpecs()
	workloads := workloadSpecs(100_000, 200_000)
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res []destset.RunResult
		err error
	}
	// One observation per cell: the observer must see the completed
	// cells in strictly increasing plan order.
	var (
		observed []int
		index    = map[[2]string]int{}
	)
	runner := destset.NewRunner(engines, workloads, destset.WithParallelism(2),
		destset.WithObserver(func(o destset.Observation) {
			observed = append(observed, index[[2]string{o.Engine, o.Workload}])
		}))
	plan, err := runner.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range plan.Cells() {
		index[[2]string{c.Engine, c.Workload}] = i
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := runner.Run(ctx)
		done <- outcome{res, err}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case o := <-done:
		if !errors.Is(o.err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", o.err)
		}
		if len(o.res) >= len(engines)*len(workloads) {
			t.Errorf("expected partial results, got all %d", len(o.res))
		}
		for k := 1; k < len(observed); k++ {
			if observed[k] <= observed[k-1] {
				t.Errorf("observed cells out of plan order: %v", observed)
				break
			}
		}
		if len(observed) != len(o.res) {
			t.Errorf("observer saw %d cells, run returned %d completed", len(observed), len(o.res))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
	}
}

func TestRunnerStreamsObservations(t *testing.T) {
	var obs []destset.Observation
	_, err := destset.NewRunner(
		[]destset.EngineSpec{destset.SpecForPolicy(destset.Owner)},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 1000, Measure: 5000}},
		destset.WithInterval(2000),
		destset.WithObserver(func(o destset.Observation) { obs = append(obs, o) }),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 3 {
		t.Fatalf("got %d observations, want 3 (2000+2000+1000)", len(obs))
	}
	var misses uint64
	for _, o := range obs {
		if o.Workload != "oltp" {
			t.Errorf("observation workload %q", o.Workload)
		}
		misses += o.Totals.Misses
	}
	if misses != 5000 {
		t.Errorf("observations cover %d misses, want 5000", misses)
	}
}

// registrations numbers the names the registry tests register. The
// registries are process-global, so a test rerun by -count in the same
// process registers a fresh name to exercise registration again.
var registrations atomic.Int64

// runName suffixes base with the next registration number.
func runName(base string) string {
	return fmt.Sprintf("%s-%d", base, registrations.Add(1))
}

func TestRegisterPolicyErrors(t *testing.T) {
	if err := destset.RegisterPolicy("", func(destset.PredictorConfig) destset.Predictor { return nil }); err == nil {
		t.Error("empty policy name should fail")
	}
	if err := destset.RegisterPolicy("nilfactory", nil); err == nil {
		t.Error("nil factory should fail")
	}
	// Built-in names collide, including case-insensitive variants.
	if err := destset.RegisterPolicy("owner", func(cfg destset.PredictorConfig) destset.Predictor {
		return destset.NewPredictor(cfg)
	}); err == nil {
		t.Error("duplicate of built-in owner should fail")
	}
	if err := destset.RegisterPolicy("OWNER", func(cfg destset.PredictorConfig) destset.Predictor {
		return destset.NewPredictor(cfg)
	}); err == nil {
		t.Error("case-variant duplicate should fail")
	}
	factory := func(cfg destset.PredictorConfig) destset.Predictor {
		return destset.NewPredictor(destset.DefaultPredictorConfig(destset.Owner, cfg.Nodes))
	}
	name := runName("reg-test-policy")
	suffix := strings.TrimPrefix(name, "reg-test-policy")
	if err := destset.RegisterPolicy(name, factory); err != nil {
		t.Fatal(err)
	}
	if err := destset.RegisterPolicy("RegTestPolicy"+suffix, factory); err == nil {
		t.Error("normalized duplicate should fail")
	}
	found := false
	for _, n := range destset.Policies() {
		if n == "regtestpolicy"+strings.TrimPrefix(suffix, "-") {
			found = true
		}
	}
	if !found {
		t.Errorf("registered policy missing from Policies(): %v", destset.Policies())
	}
}

func TestRunnerUnknownNamesError(t *testing.T) {
	_, err := destset.NewRunner(
		[]destset.EngineSpec{{PolicyName: "no-such-policy"}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 10, Measure: 10}},
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("unknown policy: err = %v", err)
	}
	_, err = destset.NewRunner(
		[]destset.EngineSpec{{Protocol: "no-such-engine"}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 10, Measure: 10}},
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("unknown engine: err = %v", err)
	}
	_, err = destset.NewRunner(
		[]destset.EngineSpec{destset.SpecForPolicy(destset.Owner)},
		[]destset.WorkloadSpec{{Name: "no-such-workload"}},
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Errorf("unknown workload: err = %v", err)
	}
	// A multicast engine without any policy is a spec error.
	_, err = destset.NewRunner(
		[]destset.EngineSpec{{Protocol: destset.ProtocolMulticast}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 10, Measure: 10}},
	).Run(context.Background())
	if err == nil {
		t.Error("multicast without a policy should fail")
	}
}

func TestRegisterWorkloadAndSweep(t *testing.T) {
	params, err := destset.NewWorkload("barnes-hut", 1)
	if err != nil {
		t.Fatal(err)
	}
	name := runName("tiny-barnes")
	preset := func(seed uint64) destset.WorkloadParams {
		p := params
		p.Name = name
		p.Seed = seed
		p.SharedUnits = 64
		p.StreamBlocksPerNode = 2048
		return p
	}
	if err := destset.RegisterWorkload(name, preset); err != nil {
		t.Fatal(err)
	}
	if err := destset.RegisterWorkload(name, preset); err == nil {
		t.Error("duplicate workload registration should fail")
	}
	if err := destset.RegisterWorkload("", preset); err == nil {
		t.Error("empty workload name should fail")
	}
	found := false
	for _, n := range destset.Workloads() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered workload missing from Workloads(): %v", destset.Workloads())
	}
	res, err := destset.NewRunner(
		[]destset.EngineSpec{destset.SpecForPolicy(destset.Owner)},
		[]destset.WorkloadSpec{{Name: name, Warm: 500, Measure: 500}},
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Totals.Misses != 500 {
		t.Errorf("sweep over registered workload: %+v", res)
	}
}

func TestRegisterEngineAndSweep(t *testing.T) {
	// A trivial custom engine: directory accounting with a constant
	// per-miss overhead message, built through the public factory hook.
	factory := func(nodes int, newBank func() []destset.Predictor) (destset.Engine, error) {
		if nodes <= 0 {
			return nil, fmt.Errorf("need nodes")
		}
		return destset.NewDirectoryEngine(), nil
	}
	name := runName("dir-alias")
	if err := destset.RegisterEngine(name, factory); err != nil {
		t.Fatal(err)
	}
	if err := destset.RegisterEngine(name, factory); err == nil {
		t.Error("duplicate engine registration should fail")
	}
	if err := destset.RegisterEngine("", factory); err == nil {
		t.Error("empty engine name should fail")
	}
	found := false
	for _, n := range destset.Engines() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered engine missing from Engines(): %v", destset.Engines())
	}
	got, err := destset.Evaluate(context.Background(),
		destset.EngineSpec{Protocol: name},
		destset.WorkloadSpec{Name: "oltp", Warm: 2000, Measure: 2000})
	if err != nil {
		t.Fatal(err)
	}
	want, err := destset.Evaluate(context.Background(),
		destset.EngineSpec{Protocol: destset.ProtocolDirectory},
		destset.WorkloadSpec{Name: "oltp", Warm: 2000, Measure: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("aliased engine diverges: %+v vs %+v", got, want)
	}
}

// facadeEngine is a custom engine written with the facade's names
// alone, as a module outside destset writes one: it delegates to the
// directory engine.
type facadeEngine struct{ dir destset.Engine }

func (e facadeEngine) Process(rec destset.Record, mi destset.MissInfo) destset.Result {
	return e.dir.Process(rec, mi)
}

func (e facadeEngine) Name() string { return "facade " + e.dir.Name() }

// TestRegisterFacadeEngine: an engine that names its types through the
// facade registers with RegisterEngine and sweeps exactly as the
// directory engine it delegates to.
func TestRegisterFacadeEngine(t *testing.T) {
	name := runName("facade-directory")
	err := destset.RegisterEngine(name, func(int, func() []destset.Predictor) (destset.Engine, error) {
		return facadeEngine{destset.NewDirectoryEngine()}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := destset.NewRunner(
		[]destset.EngineSpec{{Protocol: name}, {Protocol: destset.ProtocolDirectory}},
		[]destset.WorkloadSpec{{Name: "ocean", Warm: 1000, Measure: 1000}},
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Totals.Misses != 1000 || res[0].Totals != res[1].Totals {
		t.Errorf("facade engine's sweep %+v, want the directory engine's Totals", res)
	}
}

// TestNewEngineBuildsIndependentBanks: two engines built from one
// EngineSpec share no training, so training one leaves the other
// untrained.
func TestNewEngineBuildsIndependentBanks(t *testing.T) {
	run := func(e destset.Engine) destset.Totals {
		t.Helper()
		g, err := destset.NewWorkloadGenerator(destset.WorkloadSpec{Name: "slashcode"}, 5)
		if err != nil {
			t.Fatal(err)
		}
		var tot destset.Totals
		for i := 0; i < 5000; i++ {
			rec, mi := g.Next()
			tot.Add(e.Process(rec, mi))
		}
		return tot
	}
	for _, spec := range []destset.EngineSpec{
		destset.SpecForPolicy(destset.Group),
		{Protocol: destset.ProtocolPredictiveDirectory, PolicyName: "owner"},
	} {
		a, err := spec.NewEngine(16)
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.NewEngine(16)
		if err != nil {
			t.Fatal(err)
		}
		first := run(a)
		if trained := run(a); trained == first {
			t.Fatalf("%s: a trained second pass equals the cold first pass", a.Name())
		}
		if other := run(b); other != first {
			t.Errorf("%s: the second engine starts trained: %+v vs fresh %+v", b.Name(), other, first)
		}
	}
}

func TestEvaluateReachesPredictiveDirectory(t *testing.T) {
	res, err := destset.Evaluate(context.Background(),
		destset.EngineSpec{Protocol: destset.ProtocolPredictiveDirectory, PolicyName: "owner"},
		destset.WorkloadSpec{Name: "oltp", Warm: 20_000, Measure: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Config, "PredictiveDirectory+Owner") {
		t.Errorf("config = %q", res.Config)
	}
	dir, err := destset.EvaluatePolicy("oltp", destset.Minimal, 1, 20_000, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.IndirectionPercent >= dir.IndirectionPercent {
		t.Errorf("hybrid indirections %.1f%% should beat directory %.1f%%",
			res.IndirectionPercent, dir.IndirectionPercent)
	}
}
