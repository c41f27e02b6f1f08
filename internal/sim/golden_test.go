package sim

import (
	"context"
	"errors"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"destset/internal/predictor"
)

// countdown is a context whose Err turns non-nil at its n-th call.
type countdown struct {
	context.Context
	n int
}

func (c *countdown) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestGoldenResults pins the timing model's exact output: every Result
// field of the six Figure 7/8 configurations under both CPU models, plus
// a reduced-bandwidth snooping run whose ingress contention spreads each
// broadcast's copies over many arrival instants. Any change to event
// order, link arithmetic or protocol handling moves at least one of these
// numbers; a change that only makes the simulator faster moves none.
//
// Each case runs as a one-call Simulate, and then all of them run again
// in a shuffled order through one Job and one free list of shells, as a
// sweep's cells do: shells are reused across protocols, both CPU models
// and the 0.3 B/ns crossbar. Halfway through, a run is cancelled in the
// middle of its event loop; its shell, which still holds queued events
// and messages in flight, must be dropped, not handed back.
func TestGoldenResults(t *testing.T) {
	warm, timed := simStreams(t, 6_000, 6_000)
	multicast := func(p predictor.Policy) Config {
		cfg := DefaultConfig(Multicast)
		cfg.Predictor = predictor.DefaultConfig(p, cfg.Nodes)
		return cfg
	}
	configs := map[string]Config{
		"snooping":                    DefaultConfig(Snooping),
		"directory":                   DefaultConfig(Directory),
		"multicast+owner":             multicast(predictor.Owner),
		"multicast+broadcastifshared": multicast(predictor.BroadcastIfShared),
		"multicast+group":             multicast(predictor.Group),
		"multicast+ownergroup":        multicast(predictor.OwnerGroup),
	}
	cases := map[string]Config{}
	for name, cfg := range configs {
		for _, cpu := range []CPUModel{SimpleCPU, DetailedCPU} {
			cfg.CPU = cpu
			cases[name+"/"+cpu.String()] = cfg
		}
	}
	slow := DefaultConfig(Snooping)
	slow.Interconnect.BytesPerNs = 0.3
	cases["snooping@0.3B/ns/simple"] = slow

	if len(goldenResults) != len(cases) {
		t.Fatalf("%d golden results for %d cases", len(goldenResults), len(cases))
	}
	for name, cfg := range cases {
		want, ok := goldenResults[name]
		if !ok {
			t.Fatalf("no golden result for %s", name)
		}
		got, err := Simulate(context.Background(), cfg, warm, timed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got, want)
		}
	}

	names := slices.Sorted(maps.Keys(cases))
	rand.New(rand.NewPCG(30, 1)).Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	job := NewJob(warm, timed)
	var shells Shells
	for k, name := range names {
		if k == len(names)/2 {
			// A multicast run's restored warm-up checks the context twice,
			// once per 4,096 warm misses it trains on, and its event loop
			// once per 4,096 events: the fifth check is the loop's third.
			ctx := &countdown{Context: context.Background(), n: 5}
			_, err := SimulateWarm(ctx, cases["multicast+group/detailed"], job, &shells)
			if !errors.Is(err, context.Canceled) || ctx.n != 0 {
				t.Fatalf("cancelled run returned %v with %d checks to go, want context.Canceled at the fifth", err, ctx.n)
			}
			if len(shells.free) != 0 {
				t.Fatalf("free list holds %d shells after a cancelled run took the only one, want 0", len(shells.free))
			}
		}
		got, err := SimulateWarm(context.Background(), cases[name], job, &shells)
		if err != nil {
			t.Fatalf("%s on a shared job: %v", name, err)
		}
		if want := goldenResults[name]; got != want {
			t.Errorf("%s on a shared job and a reused shell:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

// goldenResults is TestGoldenResults' expected output on the OLTP stream
// (seed 1, 6000 warm-up and 6000 timed misses), keyed by configuration
// and CPU model.
var goldenResults = map[string]Result{
	"snooping/simple": {
		RuntimeNs: 82514.3, Misses: 6000, EndpointBytes: 1135368, AvgMissLatencyNs: 147.314,
		Indirections: 0, Retries: 0, MaxOutstanding: 1,
		LatencyP50Ns: 180, LatencyP90Ns: 180, LatencyP99Ns: 185,
	},
	"directory/simple": {
		RuntimeNs: 105057.85, Misses: 6000, EndpointBytes: 488208, AvgMissLatencyNs: 206.593,
		Indirections: 2690, Retries: 0, MaxOutstanding: 1,
		LatencyP50Ns: 180, LatencyP90Ns: 240, LatencyP99Ns: 245,
	},
	"multicast+owner/simple": {
		RuntimeNs: 89803.35, Misses: 6000, EndpointBytes: 494704, AvgMissLatencyNs: 161.727,
		Indirections: 664, Retries: 666, MaxOutstanding: 1,
		LatencyP50Ns: 180, LatencyP90Ns: 240, LatencyP99Ns: 245,
	},
	"multicast+broadcastifshared/simple": {
		RuntimeNs: 82749.55, Misses: 6000, EndpointBytes: 767136, AvgMissLatencyNs: 150.195,
		Indirections: 136, Retries: 136, MaxOutstanding: 1,
		LatencyP50Ns: 180, LatencyP90Ns: 180, LatencyP99Ns: 240,
	},
	"multicast+group/simple": {
		RuntimeNs: 87988.95, Misses: 6000, EndpointBytes: 542056, AvgMissLatencyNs: 164.106,
		Indirections: 777, Retries: 778, MaxOutstanding: 1,
		LatencyP50Ns: 180, LatencyP90Ns: 240, LatencyP99Ns: 245,
	},
	"multicast+ownergroup/simple": {
		RuntimeNs: 89667.05, Misses: 6000, EndpointBytes: 526200, AvgMissLatencyNs: 165.262,
		Indirections: 826, Retries: 829, MaxOutstanding: 1,
		LatencyP50Ns: 180, LatencyP90Ns: 240, LatencyP99Ns: 245,
	},
	"snooping/detailed": {
		RuntimeNs: 33924.575, Misses: 6000, EndpointBytes: 1134936, AvgMissLatencyNs: 152.584,
		Indirections: 0, Retries: 0, MaxOutstanding: 8,
		LatencyP50Ns: 180, LatencyP90Ns: 190, LatencyP99Ns: 205,
	},
	"directory/detailed": {
		RuntimeNs: 46756.175, Misses: 6000, EndpointBytes: 488512, AvgMissLatencyNs: 211.154,
		Indirections: 2693, Retries: 0, MaxOutstanding: 8,
		LatencyP50Ns: 190, LatencyP90Ns: 245, LatencyP99Ns: 265,
	},
	"multicast+owner/detailed": {
		RuntimeNs: 38794.725, Misses: 6000, EndpointBytes: 497696, AvgMissLatencyNs: 171.045,
		Indirections: 890, Retries: 895, MaxOutstanding: 8,
		LatencyP50Ns: 180, LatencyP90Ns: 240, LatencyP99Ns: 265,
	},
	"multicast+broadcastifshared/detailed": {
		RuntimeNs: 34113.05, Misses: 6000, EndpointBytes: 761008, AvgMissLatencyNs: 156.458,
		Indirections: 202, Retries: 202, MaxOutstanding: 8,
		LatencyP50Ns: 180, LatencyP90Ns: 190, LatencyP99Ns: 250,
	},
	"multicast+group/detailed": {
		RuntimeNs: 40574.45, Misses: 6000, EndpointBytes: 546440, AvgMissLatencyNs: 175.829,
		Indirections: 1112, Retries: 1116, MaxOutstanding: 8,
		LatencyP50Ns: 180, LatencyP90Ns: 240, LatencyP99Ns: 265,
	},
	"multicast+ownergroup/detailed": {
		RuntimeNs: 39783.95, Misses: 6000, EndpointBytes: 527376, AvgMissLatencyNs: 172.847,
		Indirections: 972, Retries: 980, MaxOutstanding: 8,
		LatencyP50Ns: 180, LatencyP90Ns: 240, LatencyP99Ns: 265,
	},
	"snooping@0.3B/ns/simple": {
		RuntimeNs: 262651.576, Misses: 6000, EndpointBytes: 1135224, AvgMissLatencyNs: 598.179,
		Indirections: 0, Retries: 0, MaxOutstanding: 1,
		LatencyP50Ns: 580, LatencyP90Ns: 855, LatencyP99Ns: 1260,
	},
}
