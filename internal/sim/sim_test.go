package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"destset/internal/predictor"
	"destset/internal/trace"
	"destset/internal/workload"
)

// mkTrace builds a 16-node trace from records.
func mkTrace(recs ...trace.Record) *trace.Trace {
	return &trace.Trace{Nodes: 16, Records: recs}
}

// run is a helper that fails the test on simulation error.
func run(t *testing.T, cfg Config, warm, timed *trace.Trace) Result {
	t.Helper()
	res, err := Run(cfg, warm, timed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMemoryMissLatency(t *testing.T) {
	// A cold read miss should cost ~180ns: 50ns request + 80ns memory +
	// 50ns data (§5.1).
	cfg := DefaultConfig(Snooping)
	// Block 32 homes at node 0; requester 1.
	tr := mkTrace(trace.Record{Addr: 32, Requester: 1, Kind: trace.GetShared, Gap: 0})
	res := run(t, cfg, nil, tr)
	if math.Abs(res.AvgMissLatencyNs-180) > 2 {
		t.Errorf("memory miss latency = %.1f ns, want ~180", res.AvgMissLatencyNs)
	}
	if res.Indirections != 0 {
		t.Error("snooping never indirects")
	}
}

func TestCacheToCacheLatencySnooping(t *testing.T) {
	// Warm: node 2 owns block 32. Timed: node 1 reads it. Snooping
	// cache-to-cache should cost ~112ns: 50 + 12 + 50.
	cfg := DefaultConfig(Snooping)
	warm := mkTrace(trace.Record{Addr: 32, Requester: 2, Kind: trace.GetExclusive})
	tr := mkTrace(trace.Record{Addr: 32, Requester: 1, Kind: trace.GetShared, Gap: 0})
	res := run(t, cfg, warm, tr)
	if math.Abs(res.AvgMissLatencyNs-112) > 2 {
		t.Errorf("snooped c2c latency = %.1f ns, want ~112", res.AvgMissLatencyNs)
	}
}

func TestCacheToCacheLatencyDirectory(t *testing.T) {
	// The same c2c miss under the directory protocol takes ~242ns:
	// 50 + 80 (directory) + 50 (forward) + 12 + 50.
	cfg := DefaultConfig(Directory)
	warm := mkTrace(trace.Record{Addr: 32, Requester: 2, Kind: trace.GetExclusive})
	tr := mkTrace(trace.Record{Addr: 32, Requester: 1, Kind: trace.GetShared, Gap: 0})
	res := run(t, cfg, warm, tr)
	if math.Abs(res.AvgMissLatencyNs-242) > 2 {
		t.Errorf("directory c2c latency = %.1f ns, want ~242", res.AvgMissLatencyNs)
	}
	if res.Indirections != 1 {
		t.Errorf("indirections = %d, want 1", res.Indirections)
	}
}

func TestDirectoryMemoryMissLatency(t *testing.T) {
	// A directory-protocol memory miss is 2-hop: ~180ns, no indirection.
	cfg := DefaultConfig(Directory)
	tr := mkTrace(trace.Record{Addr: 32, Requester: 1, Kind: trace.GetShared, Gap: 0})
	res := run(t, cfg, nil, tr)
	if math.Abs(res.AvgMissLatencyNs-180) > 2 {
		t.Errorf("directory memory miss = %.1f ns, want ~180", res.AvgMissLatencyNs)
	}
	if res.Indirections != 0 {
		t.Error("memory miss should not indirect")
	}
}

func TestMulticastInsufficientRetryLatency(t *testing.T) {
	// Multicast with the Minimal policy: a c2c miss is insufficient and
	// reissued by the directory, costing ~242ns like a 3-hop miss (§4.1).
	cfg := DefaultConfig(Multicast)
	cfg.Predictor = predictor.Config{Policy: predictor.Minimal, Nodes: 16}
	warm := mkTrace(trace.Record{Addr: 32, Requester: 2, Kind: trace.GetExclusive})
	tr := mkTrace(trace.Record{Addr: 32, Requester: 1, Kind: trace.GetShared, Gap: 0})
	res := run(t, cfg, warm, tr)
	if math.Abs(res.AvgMissLatencyNs-242) > 2 {
		t.Errorf("retried multicast latency = %.1f ns, want ~242", res.AvgMissLatencyNs)
	}
	if res.Indirections != 1 || res.Retries != 1 {
		t.Errorf("indirections/retries = %d/%d, want 1/1", res.Indirections, res.Retries)
	}
}

func TestMulticastSufficientMatchesSnoopingLatency(t *testing.T) {
	// Multicast with the Broadcast policy behaves like snooping.
	cfg := DefaultConfig(Multicast)
	cfg.Predictor = predictor.Config{Policy: predictor.Broadcast, Nodes: 16}
	warm := mkTrace(trace.Record{Addr: 32, Requester: 2, Kind: trace.GetExclusive})
	tr := mkTrace(trace.Record{Addr: 32, Requester: 1, Kind: trace.GetShared, Gap: 0})
	res := run(t, cfg, warm, tr)
	if math.Abs(res.AvgMissLatencyNs-112) > 2 {
		t.Errorf("sufficient multicast latency = %.1f ns, want ~112", res.AvgMissLatencyNs)
	}
	if res.Retries != 0 {
		t.Error("broadcast multicast should never retry")
	}
}

func TestUpgradeCompletesAtOrdering(t *testing.T) {
	// Node 2 owns block 32 with node 1 sharing; node 2 upgrades. Under
	// snooping the upgrade completes when its own request is ordered
	// (~50ns), with no data message.
	cfg := DefaultConfig(Snooping)
	warm := mkTrace(
		trace.Record{Addr: 32, Requester: 2, Kind: trace.GetExclusive},
		trace.Record{Addr: 32, Requester: 1, Kind: trace.GetShared},
	)
	tr := mkTrace(trace.Record{Addr: 32, Requester: 2, Kind: trace.GetExclusive, Gap: 0})
	res := run(t, cfg, warm, tr)
	if res.AvgMissLatencyNs > 60 {
		t.Errorf("upgrade latency = %.1f ns, want ~50", res.AvgMissLatencyNs)
	}
}

func TestRequesterIsHomeMemoryMiss(t *testing.T) {
	// Block 32 homes at node 0; node 0 reads it cold. The miss resolves
	// via local memory: ordering (~25ns) + 80ns, well under 180ns.
	for _, proto := range []Protocol{Snooping, Directory, Multicast} {
		cfg := DefaultConfig(proto)
		cfg.Predictor = predictor.Config{Policy: predictor.Minimal, Nodes: 16}
		tr := mkTrace(trace.Record{Addr: 32, Requester: 0, Kind: trace.GetShared, Gap: 0})
		res := run(t, cfg, nil, tr)
		if res.AvgMissLatencyNs > 180 {
			t.Errorf("%v: home-local miss latency = %.1f ns", proto, res.AvgMissLatencyNs)
		}
	}
}

func TestSimpleCPUSerializesGaps(t *testing.T) {
	// Two memory misses with 400-instruction gaps on a 4 GIPS blocking
	// core: runtime ~= 100 + 180 + 100 + 180.
	cfg := DefaultConfig(Snooping)
	tr := mkTrace(
		trace.Record{Addr: 32, Requester: 1, Kind: trace.GetShared, Gap: 400},
		trace.Record{Addr: 48, Requester: 1, Kind: trace.GetShared, Gap: 400},
	)
	res := run(t, cfg, nil, tr)
	want := 2 * (100.0 + 180.0)
	if math.Abs(res.RuntimeNs-want) > 5 {
		t.Errorf("runtime = %.1f ns, want ~%.0f", res.RuntimeNs, want)
	}
}

func TestDetailedCPUOverlapsBursts(t *testing.T) {
	// Four independent misses separated by 4-instruction gaps overlap in
	// the detailed model but serialize in the simple model.
	recs := []trace.Record{
		{Addr: 32, Requester: 1, Kind: trace.GetShared, Gap: 4},
		{Addr: 48, Requester: 1, Kind: trace.GetShared, Gap: 4},
		{Addr: 64, Requester: 1, Kind: trace.GetShared, Gap: 4},
		{Addr: 80, Requester: 1, Kind: trace.GetShared, Gap: 4},
	}
	simple := DefaultConfig(Snooping)
	detailed := DefaultConfig(Snooping)
	detailed.CPU = DetailedCPU
	rs := run(t, simple, nil, mkTrace(recs...))
	rd := run(t, detailed, nil, mkTrace(recs...))
	if rd.RuntimeNs >= rs.RuntimeNs*0.6 {
		t.Errorf("detailed %.1f ns should overlap misses vs simple %.1f ns", rd.RuntimeNs, rs.RuntimeNs)
	}
	if rd.MaxOutstanding < 2 {
		t.Errorf("detailed model never overlapped (max outstanding %d)", rd.MaxOutstanding)
	}
}

func TestDetailedCPURespectsROBWindow(t *testing.T) {
	// Misses separated by gaps larger than the ROB window cannot overlap.
	recs := []trace.Record{
		{Addr: 32, Requester: 1, Kind: trace.GetShared, Gap: 1000},
		{Addr: 48, Requester: 1, Kind: trace.GetShared, Gap: 1000},
	}
	cfg := DefaultConfig(Snooping)
	cfg.CPU = DetailedCPU
	res := run(t, cfg, nil, mkTrace(recs...))
	if res.MaxOutstanding != 1 {
		t.Errorf("max outstanding = %d, want 1 (gaps exceed ROB window)", res.MaxOutstanding)
	}
}

func TestSameBlockRequestsSerialize(t *testing.T) {
	// Two misses to the same block from one node must not be in flight
	// together (MSHR merge rule).
	recs := []trace.Record{
		{Addr: 32, Requester: 1, Kind: trace.GetShared, Gap: 1},
		{Addr: 32, Requester: 1, Kind: trace.GetExclusive, Gap: 1},
	}
	cfg := DefaultConfig(Snooping)
	cfg.CPU = DetailedCPU
	res := run(t, cfg, nil, mkTrace(recs...))
	if res.MaxOutstanding != 1 {
		t.Errorf("same-block misses overlapped (max outstanding %d)", res.MaxOutstanding)
	}
}

func TestTrafficSnoopingVsDirectory(t *testing.T) {
	// On a shared workload snooping uses roughly twice the directory
	// protocol's traffic (§5.3: requests are broadcast but data dominates).
	warm, timed := workloadTraces(t, 4000, 4000)
	snoop := run(t, DefaultConfig(Snooping), warm, timed)
	dir := run(t, DefaultConfig(Directory), warm, timed)
	ratio := snoop.BytesPerMiss() / dir.BytesPerMiss()
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("snooping/directory traffic ratio = %.2f, want ~2", ratio)
	}
}

func TestRuntimeSnoopingBeatsDirectoryOnSharingWorkload(t *testing.T) {
	warm, timed := workloadTraces(t, 4000, 4000)
	snoop := run(t, DefaultConfig(Snooping), warm, timed)
	dir := run(t, DefaultConfig(Directory), warm, timed)
	if snoop.RuntimeNs >= dir.RuntimeNs {
		t.Errorf("snooping (%.0f ns) should beat directory (%.0f ns) on c2c-heavy work",
			snoop.RuntimeNs, dir.RuntimeNs)
	}
}

func TestMulticastPredictorBetweenExtremes(t *testing.T) {
	warm, timed := workloadTraces(t, 4000, 4000)
	snoop := run(t, DefaultConfig(Snooping), warm, timed)
	dir := run(t, DefaultConfig(Directory), warm, timed)
	mc := DefaultConfig(Multicast)
	mc.Predictor = predictor.DefaultConfig(predictor.Group, 16)
	group := run(t, mc, warm, timed)
	if group.RuntimeNs > dir.RuntimeNs*1.02 {
		t.Errorf("Group runtime %.0f ns should be at or below directory %.0f ns",
			group.RuntimeNs, dir.RuntimeNs)
	}
	if group.BytesPerMiss() > snoop.BytesPerMiss() {
		t.Errorf("Group traffic %.0f B/miss exceeds snooping %.0f",
			group.BytesPerMiss(), snoop.BytesPerMiss())
	}
}

// workloadTraces generates a small OLTP-like workload split into warm and
// timed traces.
func workloadTraces(t *testing.T, warmN, timedN int) (*trace.Trace, *trace.Trace) {
	t.Helper()
	p, err := workload.Preset("oltp", 42)
	if err != nil {
		t.Fatal(err)
	}
	p.SharedUnits = 400
	p.StreamBlocksPerNode = 8192
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := g.Generate(warmN)
	timed, _ := g.Generate(timedN)
	return warm, timed
}

func TestAllProtocolsCompleteLargeMix(t *testing.T) {
	// Deadlock-freedom: every protocol completes a sizable mixed trace
	// under both CPU models.
	warm, timed := workloadTraces(t, 2000, 6000)
	for _, proto := range []Protocol{Snooping, Directory, Multicast} {
		for _, cpu := range []CPUModel{SimpleCPU, DetailedCPU} {
			cfg := DefaultConfig(proto)
			cfg.CPU = cpu
			cfg.Predictor = predictor.DefaultConfig(predictor.OwnerGroup, 16)
			res := run(t, cfg, warm, timed)
			if res.Misses != uint64(timed.Len()) {
				t.Errorf("%v/%v: completed %d/%d", proto, cpu, res.Misses, timed.Len())
			}
			if res.RuntimeNs <= 0 {
				t.Errorf("%v/%v: runtime %.1f", proto, cpu, res.RuntimeNs)
			}
		}
	}
}

func TestValidation(t *testing.T) {
	good := DefaultConfig(Snooping)
	tr := mkTrace(trace.Record{Addr: 32, Requester: 1})
	cases := map[string]func() (cfg Config, warm, timed *trace.Trace){
		"empty trace": func() (Config, *trace.Trace, *trace.Trace) { return good, nil, mkTrace() },
		"nil trace":   func() (Config, *trace.Trace, *trace.Trace) { return good, nil, nil },
		"node mismatch": func() (Config, *trace.Trace, *trace.Trace) {
			return good, nil, &trace.Trace{Nodes: 4, Records: tr.Records}
		},
		// A warm trace of another system size must be rejected, whether
		// its requesters overrun the config's nodes or not.
		"32-node warm trace": func() (Config, *trace.Trace, *trace.Trace) {
			return good, &trace.Trace{Nodes: 32, Records: []trace.Record{{Addr: 32, Requester: 16}}}, tr
		},
		"8-node warm trace": func() (Config, *trace.Trace, *trace.Trace) {
			return good, &trace.Trace{Nodes: 8, Records: []trace.Record{{Addr: 32, Requester: 1}}}, tr
		},
		"bad rates": func() (Config, *trace.Trace, *trace.Trace) {
			c := good
			c.SimpleInstrPerNs = 0
			return c, nil, tr
		},
		"bad attempts": func() (Config, *trace.Trace, *trace.Trace) {
			c := good
			c.MaxAttempts = 1
			return c, nil, tr
		},
	}
	for name, mk := range cases {
		cfg, warm, timed := mk()
		_, err := Run(cfg, warm, timed)
		switch {
		case err == nil:
			t.Errorf("%s: expected error", name)
		case warm != nil && !strings.Contains(err.Error(), fmt.Sprintf("%d nodes, config %d", warm.Nodes, cfg.Nodes)):
			t.Errorf("%s: error %q does not name both node counts", name, err)
		}
	}
}

func TestConfigNames(t *testing.T) {
	if got := DefaultConfig(Snooping).Name(); got != "snooping" {
		t.Errorf("Name = %q", got)
	}
	mc := DefaultConfig(Multicast)
	if got := mc.Name(); got != "Multicast+Group[1024B,8192e]" {
		t.Errorf("Name = %q", got)
	}
	if SimpleCPU.String() != "simple" || DetailedCPU.String() != "detailed" {
		t.Error("CPU model names wrong")
	}
}

func TestDeterministicRuns(t *testing.T) {
	warm, timed := workloadTraces(t, 1000, 2000)
	cfg := DefaultConfig(Multicast)
	cfg.CPU = DetailedCPU
	a := run(t, cfg, warm, timed)
	b := run(t, cfg, warm, timed)
	if a != b {
		t.Errorf("same-input runs differ:\n%+v\n%+v", a, b)
	}
}
