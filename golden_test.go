package destset_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"destset"
)

// goldenTraceSpecs are TestTraceGoldenTotals' cells: both baseline
// protocols, multicast snooping with every built-in policy at the
// paper's standout configuration, tables small enough that the OLTP
// stream evicts from them at every associativity, and an unbounded
// Group table.
func goldenTraceSpecs() []destset.EngineSpec {
	specs := []destset.EngineSpec{
		{Protocol: destset.ProtocolSnooping, Label: "snooping"},
		{Protocol: destset.ProtocolDirectory, Label: "directory"},
	}
	for _, p := range []destset.Policy{
		destset.Owner, destset.BroadcastIfShared, destset.Group, destset.OwnerGroup,
		destset.StickySpatial, destset.Minimal, destset.Broadcast, destset.Oracle,
	} {
		specs = append(specs, destset.EngineSpec{
			Protocol: destset.ProtocolMulticast, Policy: p, UsePolicy: true,
			Label: "multicast+" + p.String(),
		})
	}
	sized := func(p destset.Policy, entries, ways int) destset.EngineSpec {
		cfg := destset.DefaultPredictorConfig(p, 0)
		cfg.Entries, cfg.Ways = entries, ways
		return destset.EngineSpec{
			Protocol: destset.ProtocolMulticast, Predictor: &cfg,
			Label: fmt.Sprintf("multicast+%v/%dx%d", p, entries, ways),
		}
	}
	for _, p := range []destset.Policy{destset.Owner, destset.Group, destset.OwnerGroup} {
		for _, ways := range []int{1, 2, 4, 8} {
			specs = append(specs, sized(p, 64, ways))
		}
	}
	return append(specs,
		sized(destset.BroadcastIfShared, 16, 4),
		sized(destset.StickySpatial, 64, 1),
		sized(destset.Group, 0, 4),
	)
}

// TestTraceGoldenTotals pins every Totals field of the trace-driven
// path on one paper stream (OLTP, seed 1, 6000 warm-up and 6000
// measured misses): the twin of internal/sim's TestGoldenResults. A
// change to the predictor tables, the policies or the engines that
// moves any simulated count fails here.
func TestTraceGoldenTotals(t *testing.T) {
	specs := goldenTraceSpecs()
	res, err := destset.NewRunner(specs,
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 6_000, Measure: 6_000}},
		destset.WithSeeds(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(specs) {
		t.Fatalf("%d results for %d specs", len(res), len(specs))
	}
	got := make(map[string]destset.Totals, len(res))
	for _, r := range res {
		got[r.Engine] = r.Totals
	}
	if len(goldenTraceTotals) != len(got) {
		t.Errorf("%d golden totals for %d cells", len(goldenTraceTotals), len(got))
	}
	for name, tot := range got {
		if want, ok := goldenTraceTotals[name]; !ok || tot != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, tot, want)
		}
	}
	if t.Failed() {
		names := make([]string, 0, len(got))
		for name := range got {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, name := range names {
			g := got[name]
			fmt.Fprintf(&b, "\t%q: {Misses: %d, RequestMsgs: %d, DataMsgs: %d, Indirect: %d, Retries: %d},\n",
				name, g.Misses, g.RequestMsgs, g.DataMsgs, g.Indirect, g.Retries)
		}
		t.Logf("measured totals:\n%s", b.String())
	}
}

// goldenTraceTotals is TestTraceGoldenTotals' expected output, keyed by
// cell label. An entry that must move is re-recorded from the test's
// log of measured totals, with the reason in CHANGES.md.
var goldenTraceTotals = map[string]destset.Totals{
	"directory":                        {Misses: 6000, RequestMsgs: 9135, DataMsgs: 5979, Indirect: 2729, Retries: 0},
	"multicast+Broadcast":              {Misses: 6000, RequestMsgs: 90000, DataMsgs: 5979, Indirect: 0, Retries: 0},
	"multicast+BroadcastIfShared":      {Misses: 6000, RequestMsgs: 43688, DataMsgs: 5979, Indirect: 132, Retries: 132},
	"multicast+BroadcastIfShared/16x4": {Misses: 6000, RequestMsgs: 35946, DataMsgs: 5979, Indirect: 666, Retries: 666},
	"multicast+Group":                  {Misses: 6000, RequestMsgs: 14689, DataMsgs: 5979, Indirect: 761, Retries: 761},
	"multicast+Group/0x4":              {Misses: 6000, RequestMsgs: 14689, DataMsgs: 5979, Indirect: 761, Retries: 761},
	"multicast+Group/64x1":             {Misses: 6000, RequestMsgs: 12398, DataMsgs: 5979, Indirect: 1008, Retries: 1008},
	"multicast+Group/64x2":             {Misses: 6000, RequestMsgs: 13092, DataMsgs: 5979, Indirect: 957, Retries: 957},
	"multicast+Group/64x4":             {Misses: 6000, RequestMsgs: 12881, DataMsgs: 5979, Indirect: 965, Retries: 965},
	"multicast+Group/64x8":             {Misses: 6000, RequestMsgs: 13005, DataMsgs: 5979, Indirect: 985, Retries: 985},
	"multicast+Minimal":                {Misses: 6000, RequestMsgs: 8631, DataMsgs: 5979, Indirect: 2642, Retries: 2642},
	"multicast+Oracle":                 {Misses: 6000, RequestMsgs: 8631, DataMsgs: 5979, Indirect: 0, Retries: 0},
	"multicast+Owner":                  {Misses: 6000, RequestMsgs: 9038, DataMsgs: 5979, Indirect: 619, Retries: 619},
	"multicast+Owner/64x1":             {Misses: 6000, RequestMsgs: 8993, DataMsgs: 5979, Indirect: 699, Retries: 699},
	"multicast+Owner/64x2":             {Misses: 6000, RequestMsgs: 9009, DataMsgs: 5979, Indirect: 693, Retries: 693},
	"multicast+Owner/64x4":             {Misses: 6000, RequestMsgs: 9005, DataMsgs: 5979, Indirect: 684, Retries: 684},
	"multicast+Owner/64x8":             {Misses: 6000, RequestMsgs: 8998, DataMsgs: 5979, Indirect: 682, Retries: 682},
	"multicast+OwnerGroup":             {Misses: 6000, RequestMsgs: 12715, DataMsgs: 5979, Indirect: 769, Retries: 769},
	"multicast+OwnerGroup/64x1":        {Misses: 6000, RequestMsgs: 11252, DataMsgs: 5979, Indirect: 961, Retries: 961},
	"multicast+OwnerGroup/64x2":        {Misses: 6000, RequestMsgs: 11686, DataMsgs: 5979, Indirect: 931, Retries: 931},
	"multicast+OwnerGroup/64x4":        {Misses: 6000, RequestMsgs: 11718, DataMsgs: 5979, Indirect: 935, Retries: 935},
	"multicast+OwnerGroup/64x8":        {Misses: 6000, RequestMsgs: 11638, DataMsgs: 5979, Indirect: 948, Retries: 948},
	"multicast+StickySpatial(1)":       {Misses: 6000, RequestMsgs: 33184, DataMsgs: 5979, Indirect: 180, Retries: 180},
	"multicast+StickySpatial(1)/64x1":  {Misses: 6000, RequestMsgs: 30883, DataMsgs: 5979, Indirect: 381, Retries: 381},
	"snooping":                         {Misses: 6000, RequestMsgs: 90000, DataMsgs: 5979, Indirect: 0, Retries: 0},
}

// TestGroupRolloverLimitsDiffer: a Group rollover limit of 256 trains
// down at a different pace from one of 1024, so the two give different
// OLTP totals. An 8-bit rollover counter wrapped before either limit,
// which made every limit of 256 or more behave alike: never decay.
func TestGroupRolloverLimitsDiffer(t *testing.T) {
	var specs []destset.EngineSpec
	for _, limit := range []int{256, 1024} {
		cfg := destset.DefaultPredictorConfig(destset.Group, 0)
		cfg.GroupRollover = limit
		specs = append(specs, destset.EngineSpec{Predictor: &cfg, Label: fmt.Sprintf("roll%d", limit)})
	}
	res, err := destset.NewRunner(specs,
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 6_000, Measure: 6_000}},
		destset.WithSeeds(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Totals == res[1].Totals {
		t.Errorf("rollover limits 256 and 1024 give the same totals %+v", res[0].Totals)
	}
}
