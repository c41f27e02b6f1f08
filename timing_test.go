package destset_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"destset"
	"destset/internal/dataset"
	"destset/internal/workload"
)

// timingScale keeps the execution-driven equivalence runs fast.
const (
	timingWarm    = 6_000
	timingMeasure = 6_000
)

// figureSimSpecs is the six-configuration Figure 7/8 sweep as SimSpecs.
func figureSimSpecs(cpu destset.CPUModel) []destset.SimSpec {
	specs := []destset.SimSpec{
		{Protocol: destset.ProtocolSnooping, CPU: cpu},
		{Protocol: destset.ProtocolDirectory, CPU: cpu},
	}
	for _, pol := range []destset.Policy{
		destset.Owner, destset.BroadcastIfShared, destset.Group, destset.OwnerGroup,
	} {
		specs = append(specs, destset.SimSpec{
			Protocol: destset.ProtocolMulticast,
			Policy:   pol, UsePolicy: true,
			CPU: cpu,
		})
	}
	return specs
}

// simRecords is a SimSource over records held in memory, as a caller
// that brings records of its own implements it.
type simRecords struct {
	nodes int
	recs  []destset.Record
}

func (s *simRecords) Nodes() int                  { return s.nodes }
func (s *simRecords) Len() int                    { return len(s.recs) }
func (s *simRecords) Record(i int) destset.Record { return s.recs[i] }

// legacySimConfigs hand-builds the same six configurations the way the
// pre-SimSpec experiments did.
func legacySimConfigs(cpu destset.CPUModel, nodes int) []destset.SimConfig {
	cfgs := []destset.SimConfig{
		destset.DefaultSimConfig(destset.SimSnooping),
		destset.DefaultSimConfig(destset.SimDirectory),
	}
	for _, pol := range []destset.Policy{
		destset.Owner, destset.BroadcastIfShared, destset.Group, destset.OwnerGroup,
	} {
		c := destset.DefaultSimConfig(destset.SimMulticast)
		c.Predictor = destset.DefaultPredictorConfig(pol, nodes)
		cfgs = append(cfgs, c)
	}
	for i := range cfgs {
		cfgs[i].CPU = cpu
	}
	return cfgs
}

// TestTimingRunnerMatchesLegacySim is the spec-driven timing equivalence
// budget: for all six Figure 7/8 configurations on both CPU models, the
// SimSpec/TimingRunner path must reproduce one-call SimulateTiming
// results over hand-built configurations bit-identically — same
// runtime, traffic, latency percentiles and retry counts — at
// parallelism 1 and parallelism N, and under both source kinds (the
// runner's zero-copy dataset regions versus the records copied out of
// the dataset into a SimSource of the caller's own). One sweep covers
// two workloads × two seeds, so cells of four (workload, seed) pairs
// share warm-ups and reuse oracles across pairs, and a rerun over a
// result store that already holds some cells of every pair mixes store
// hits with restored cells.
func TestTimingRunnerMatchesLegacySim(t *testing.T) {
	workloads, seeds := []string{"oltp", "ocean"}, []uint64{1, 2}
	wl := make([]destset.WorkloadSpec, len(workloads))
	for i, name := range workloads {
		wl[i] = destset.WorkloadSpec{Name: name, Warm: timingWarm, Measure: timingMeasure}
	}
	type pair struct {
		workload string
		seed     uint64
	}
	traces := map[pair][2]*simRecords{}
	for _, name := range workloads {
		for _, seed := range seeds {
			p, err := workload.Preset(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			d, err := dataset.GetShared(p, timingWarm, timingMeasure)
			if err != nil {
				t.Fatal(err)
			}
			warm, measure := &simRecords{nodes: d.Nodes()}, &simRecords{nodes: d.Nodes()}
			for i := 0; i < d.Len(); i++ {
				rec, _ := d.At(i)
				if i < d.Warm() {
					warm.recs = append(warm.recs, rec)
				} else {
					measure.recs = append(measure.recs, rec)
				}
			}
			traces[pair{name, seed}] = [2]*simRecords{warm, measure}
		}
	}

	for _, cpu := range []destset.CPUModel{destset.SimpleCPU, destset.DetailedCPU} {
		cfgs := legacySimConfigs(cpu, 16)
		legacy := map[pair][]destset.SimResult{}
		for pr, tr := range traces {
			for _, cfg := range cfgs {
				res, err := destset.SimulateTiming(context.Background(), cfg, tr[0], tr[1])
				if err != nil {
					t.Fatal(err)
				}
				legacy[pr] = append(legacy[pr], res)
			}
		}
		specs := figureSimSpecs(cpu)
		check := func(run string, res []destset.TimingResult) {
			t.Helper()
			if want := len(workloads) * len(specs) * len(seeds); len(res) != want {
				t.Fatalf("cpu=%v %s: %d results, want %d", cpu, run, len(res), want)
			}
			for i, r := range res {
				// Plan order is workload-major, then spec, then seed.
				w, s := i/(len(specs)*len(seeds)), i/len(seeds)%len(specs)
				pr := pair{workloads[w], seeds[i%len(seeds)]}
				if r.Workload != pr.workload || r.Seed != pr.seed || r.CPU != cpu.String() {
					t.Errorf("cpu=%v %s cell %d: metadata %+v, want %v", cpu, run, i, r, pr)
				}
				if r.Config != cfgs[s].Name() {
					t.Errorf("cpu=%v %s cell %d: config %q, legacy %q", cpu, run, i, r.Config, cfgs[s].Name())
				}
				if r.Result != legacy[pr][s] {
					t.Errorf("cpu=%v %s %v %s: runner result diverges from SimulateTiming\n runner: %+v\n legacy: %+v",
						cpu, run, pr, r.Config, r.Result, legacy[pr][s])
				}
			}
		}
		for _, par := range []int{1, 8} {
			res, err := destset.NewTimingRunner(specs, wl,
				destset.WithSeeds(seeds...),
				destset.WithParallelism(par),
			).Run(context.Background())
			if err != nil {
				t.Fatalf("cpu=%v parallelism=%d: %v", cpu, par, err)
			}
			check(fmt.Sprintf("parallelism=%d", par), res)
		}

		// Store every third cell — some cells of every (workload, seed) —
		// then rerun the whole sweep over the store.
		var stored []int
		for i := 0; i < len(workloads)*len(specs)*len(seeds); i += 3 {
			stored = append(stored, i)
		}
		for _, par := range []int{1, 8} {
			rs := destset.NewResultStore()
			if _, err := destset.NewTimingRunner(specs, wl,
				destset.WithSeeds(seeds...),
				destset.WithCells(stored),
				destset.WithResultStore(rs),
			).Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			res, err := destset.NewTimingRunner(specs, wl,
				destset.WithSeeds(seeds...),
				destset.WithParallelism(par),
				destset.WithResultStore(rs),
			).Run(context.Background())
			if err != nil {
				t.Fatalf("cpu=%v store rerun parallelism=%d: %v", cpu, par, err)
			}
			check(fmt.Sprintf("store rerun parallelism=%d", par), res)
			if st := rs.Stats(); st.MemHits != uint64(len(stored)) {
				t.Errorf("cpu=%v store rerun parallelism=%d: %d store hits, want %d", cpu, par, st.MemHits, len(stored))
			}
		}
	}
}

// TestTimingRunnerCancellation: a canceled context must stop the sweep
// promptly and return the completed prefix-consistent subset of cells,
// each bit-identical to the uncancelled sweep's value for the same
// coordinates, in deterministic (spec-major) order.
func TestTimingRunnerCancellation(t *testing.T) {
	specs := figureSimSpecs(destset.SimpleCPU)
	wl := []destset.WorkloadSpec{{Name: "oltp", Warm: timingWarm, Measure: timingMeasure}}

	full, err := destset.NewTimingRunner(specs, wl, destset.WithSeeds(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byConfig := make(map[string]destset.TimingResult, len(full))
	for _, r := range full {
		byConfig[r.Config] = r
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var observed []string
	partial, err := destset.NewTimingRunner(specs, wl,
		destset.WithSeeds(1),
		destset.WithParallelism(2),
		destset.WithTimingObserver(func(o destset.TimingObservation) {
			observed = append(observed, o.Config)
			if len(observed) == 2 {
				cancel() // cancel mid-sweep, after two cells completed
			}
		}),
	).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(partial) >= len(full) {
		t.Fatalf("cancellation returned all %d cells; expected a partial sweep", len(partial))
	}
	if len(partial) == 0 {
		t.Fatal("no completed cells returned; observer saw at least two")
	}
	// Completed cells keep the deterministic spec-major order and their
	// values match the uncancelled sweep exactly.
	lastIdx := -1
	order := make(map[string]int, len(full))
	for i, r := range full {
		order[r.Config] = i
	}
	// The observer saw exactly the completed cells, in plan order.
	for k, cfg := range observed {
		if k > 0 && order[cfg] <= order[observed[k-1]] {
			t.Errorf("observed cells out of plan order: %q after %q", cfg, observed[k-1])
		}
	}
	if len(observed) != len(partial) {
		t.Errorf("observer saw %d cells, run returned %d completed", len(observed), len(partial))
	}
	for _, r := range partial {
		i, ok := order[r.Config]
		if !ok {
			t.Fatalf("unknown cell %q in partial results", r.Config)
		}
		if i <= lastIdx {
			t.Errorf("partial results out of deterministic order: %q", r.Config)
		}
		lastIdx = i
		if r.Result != byConfig[r.Config].Result {
			t.Errorf("%s: partial cell diverges from full sweep", r.Config)
		}
	}
}

// TestTimingRunnerContextPreCancelled: an already-cancelled context runs
// nothing.
func TestTimingRunnerContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := destset.NewTimingRunner(
		figureSimSpecs(destset.SimpleCPU)[:1],
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 2_000, Measure: 2_000}},
	).Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res) != 0 {
		t.Fatalf("pre-cancelled run returned %d cells", len(res))
	}
}

// TestSimSpecResolveOverrides: Table-4 knob overrides land in the
// resolved config, and invalid specs fail eagerly.
func TestSimSpecResolveOverrides(t *testing.T) {
	spec := destset.SimSpec{
		Protocol:       destset.ProtocolMulticast,
		Policy:         destset.OwnerGroup,
		UsePolicy:      true,
		CPU:            destset.DetailedCPU,
		LinkBytesPerNs: 2.5,
		TraversalNs:    80,
		L2LatencyNs:    15,
		MemLatencyNs:   95,
		MSHRs:          4,
		ROBWindow:      128,
		MaxAttempts:    3,
	}
	cfg, err := spec.Resolve(16)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Interconnect.BytesPerNs != 2.5 || cfg.MSHRs != 4 || cfg.ROBWindow != 128 || cfg.MaxAttempts != 3 {
		t.Errorf("overrides not applied: %+v", cfg)
	}
	if cfg.L2Latency.Nanoseconds() != 15 || cfg.MemLatency.Nanoseconds() != 95 || cfg.Interconnect.Traversal.Nanoseconds() != 80 {
		t.Errorf("latency overrides not applied: %+v", cfg)
	}
	if cfg.CPU != destset.DetailedCPU || cfg.Predictor.Policy != destset.OwnerGroup {
		t.Errorf("cpu/policy not applied: %+v", cfg)
	}
	if got := spec.DisplayLabel(); got != "multicast+ownergroup" {
		t.Errorf("label = %q", got)
	}

	if _, err := (destset.SimSpec{Protocol: destset.ProtocolPredictiveDirectory}).Resolve(16); err == nil {
		t.Error("timing model should reject non-simulatable engines")
	}
	if _, err := (destset.SimSpec{}).Resolve(16); err == nil {
		t.Error("empty spec should fail")
	}
	if _, err := (destset.SimSpec{Protocol: destset.ProtocolMulticast, PolicyName: "nosuch"}).Resolve(16); err == nil {
		t.Error("unknown policy should fail")
	}
}

// TestTimingRunnerRegisteredPolicyName: the registry path (PolicyName)
// reaches the timing model and reproduces the by-value policy's results
// exactly, for built-in names.
func TestTimingRunnerRegisteredPolicyName(t *testing.T) {
	wl := []destset.WorkloadSpec{{Name: "barnes-hut", Warm: 4_000, Measure: 4_000}}
	byValue, err := destset.EvaluateTiming(context.Background(),
		destset.SimSpec{Protocol: destset.ProtocolMulticast, Policy: destset.Group, UsePolicy: true},
		wl[0])
	if err != nil {
		t.Fatal(err)
	}
	byName, err := destset.EvaluateTiming(context.Background(),
		destset.SimSpec{Protocol: destset.ProtocolMulticast, PolicyName: "group"},
		wl[0])
	if err != nil {
		t.Fatal(err)
	}
	if byName != byValue {
		t.Errorf("PolicyName path diverges from Policy path:\n name:  %+v\n value: %+v", byName, byValue)
	}
}

// TestTimingObservationsJSONLRoundTrip: the observer sink spills timing
// cells as JSON Lines and ReadTimingObservations recovers them.
func TestTimingObservationsJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := destset.NewJSONLObserver(&buf)
	specs := figureSimSpecs(destset.SimpleCPU)[:2]
	res, err := destset.NewTimingRunner(specs,
		[]destset.WorkloadSpec{{Name: "ocean", Warm: 3_000, Measure: 3_000}},
		destset.WithTimingObserver(sink.ObserveTiming),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := destset.ReadTimingObservations(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(res) {
		t.Fatalf("decoded %d observations, want %d", len(got), len(res))
	}
	want := make(map[string]destset.TimingResult, len(res))
	for _, r := range res {
		want[r.Config] = r
	}
	for _, o := range got {
		if o != want[o.Config] {
			t.Errorf("%s: decoded observation diverges:\n got:  %+v\n want: %+v", o.Config, o, want[o.Config])
		}
	}
}
