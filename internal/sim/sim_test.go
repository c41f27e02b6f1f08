package sim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"destset/internal/dataset"
	"destset/internal/predictor"
	"destset/internal/trace"
	"destset/internal/workload"
)

// records is a Source over in-memory records of a system of nodes
// processors.
type records struct {
	nodes int
	recs  []trace.Record
}

func (r *records) Nodes() int                { return r.nodes }
func (r *records) Len() int                  { return len(r.recs) }
func (r *records) Record(i int) trace.Record { return r.recs[i] }

// copyOf copies src's records into memory.
func copyOf(src Source) *records {
	r := &records{nodes: src.Nodes(), recs: make([]trace.Record, src.Len())}
	for i := range r.recs {
		r.recs[i] = src.Record(i)
	}
	return r
}

// mkTrace builds a 16-node trace from records.
func mkTrace(recs ...trace.Record) *records {
	return &records{nodes: 16, recs: recs}
}

// simulate runs Simulate over warm and timed; a nil trace is no region
// at all.
func simulate(cfg Config, warm, timed *records) (Result, error) {
	source := func(r *records) Source {
		if r == nil {
			return nil
		}
		return r
	}
	return Simulate(context.Background(), cfg, source(warm), source(timed))
}

// run is a helper that fails the test on simulation error.
func run(t *testing.T, cfg Config, warm, timed *records) Result {
	t.Helper()
	res, err := simulate(cfg, warm, timed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustLayout lays out job's timed streams, failing the test on error.
func mustLayout(t *testing.T, job *Job) *streams {
	t.Helper()
	st, err := job.layout()
	if err != nil {
		t.Fatal(err)
	}
	return st
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
// timed traces: the records of a dataset's two regions.
func workloadTraces(t *testing.T, warmN, timedN int) (*records, *records) {
	t.Helper()
	p, err := workload.Preset("oltp", 42)
	if err != nil {
		t.Fatal(err)
	}
	p.SharedUnits = 400
	p.StreamBlocksPerNode = 8192
	d, err := dataset.Generate(p, warmN, timedN)
	if err != nil {
		t.Fatal(err)
	}
	return copyOf(d.WarmRegion()), copyOf(d.MeasureRegion())
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
	cases := map[string]func() (cfg Config, warm, timed *records){
		"empty trace": func() (Config, *records, *records) { return good, nil, mkTrace() },
		"nil trace":   func() (Config, *records, *records) { return good, nil, nil },
		"node mismatch": func() (Config, *records, *records) {
			return good, nil, &records{nodes: 4, recs: tr.recs}
		},
		// A warm trace of another system size must be rejected, whether
		// its requesters overrun the config's nodes or not.
		"32-node warm trace": func() (Config, *records, *records) {
			return good, &records{nodes: 32, recs: []trace.Record{{Addr: 32, Requester: 16}}}, tr
		},
		"8-node warm trace": func() (Config, *records, *records) {
			return good, &records{nodes: 8, recs: []trace.Record{{Addr: 32, Requester: 1}}}, tr
		},
		"bad rates": func() (Config, *records, *records) {
			c := good
			c.SimpleInstrPerNs = 0
			return c, nil, tr
		},
		"bad attempts": func() (Config, *records, *records) {
			c := good
			c.MaxAttempts = 1
			return c, nil, tr
		},
	}
	for name, mk := range cases {
		cfg, warm, timed := mk()
		_, err := simulate(cfg, warm, timed)
		switch {
		case err == nil:
			t.Errorf("%s: expected error", name)
		case warm != nil && !strings.Contains(err.Error(), fmt.Sprintf("%d nodes, config %d", warm.nodes, cfg.Nodes)):
			t.Errorf("%s: error %q does not name both node counts", name, err)
		}
	}
}

// TestMalformedConfigIsRefused: a Config that newSim would hand to a
// constructor that panics, or whose predictor node count it would
// overwrite, is refused with an error naming the field.
func TestMalformedConfigIsRefused(t *testing.T) {
	tr := mkTrace(trace.Record{Addr: 32, Requester: 1}, trace.Record{Addr: 32, Requester: 2, Kind: trace.GetExclusive})
	cases := map[string]struct {
		mutate func(*Config)
		field  string
	}{
		"predictor entries 3":         {func(c *Config) { c.Predictor.Entries = 3 }, "Predictor"},
		"unknown predictor policy":    {func(c *Config) { c.Predictor.Policy = 99 }, "Predictor"},
		"unreachable group rollover":  {func(c *Config) { c.Predictor.GroupRollover = 1 << 40 }, "Predictor"},
		"8-node predictor on 16":      {func(c *Config) { c.Predictor.Nodes = 8 }, "Predictor.Nodes"},
		"3 MB L2":                     {func(c *Config) { c.Coherence.L2.SizeBytes = 3 << 20 }, "Coherence.L2"},
		"L2 of no ways":               {func(c *Config) { c.Coherence.L2.Ways = 0 }, "Coherence.L2"},
		"no link bandwidth":           {func(c *Config) { c.Interconnect.BytesPerNs = 0 }, "Interconnect.BytesPerNs"},
		"8-node interconnect on 16":   {func(c *Config) { c.Interconnect.Nodes = 8 }, "Interconnect.Nodes"},
		"interconnect over max nodes": {func(c *Config) { c.Interconnect.Nodes = 65 }, "Interconnect.Nodes"},
	}
	for name, tc := range cases {
		cfg := DefaultConfig(Multicast)
		tc.mutate(&cfg)
		_, err := simulate(cfg, nil, tr)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Simulate = %v, want an error naming %s", name, err, tc.field)
		}
	}
	// A predictor node count of 0 inherits the system's, and a bank from
	// NewBank is not built from Predictor at all.
	inherit := DefaultConfig(Multicast)
	inherit.Predictor.Nodes = 0
	custom := DefaultConfig(Multicast)
	custom.Predictor.Entries = 3
	custom.NewBank = func() []predictor.Predictor { return predictor.NewBank(predictor.DefaultConfig(predictor.Owner, 16)) }
	for name, cfg := range map[string]Config{"inherited nodes": inherit, "NewBank": custom} {
		if _, err := simulate(cfg, nil, tr); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestMalformedRecordsAreRefused: a record whose requester is outside
// the system or whose kind is neither GETS nor GETX, in either region,
// is refused with an error naming the region and the record's index,
// by a one-call run and by every run of a shared Job, instead of
// panicking in the layout or the oracle.
func TestMalformedRecordsAreRefused(t *testing.T) {
	good := []trace.Record{
		{Addr: 32, Requester: 1, Kind: trace.GetShared, Gap: 5},
		{Addr: 33, Requester: 2, Kind: trace.GetExclusive, Gap: 5},
		{Addr: 32, Requester: 3, Kind: trace.GetExclusive, Gap: 5},
	}
	bad := map[string]trace.Record{
		"requester 16":  {Addr: 34, Requester: 16, Kind: trace.GetShared},
		"requester 200": {Addr: 34, Requester: 200, Kind: trace.GetShared},
		"kind 7":        {Addr: 34, Requester: 4, Kind: 7},
	}
	with := func(rec trace.Record) *records {
		recs := append([]trace.Record(nil), good...)
		return mkTrace(append(recs, rec)...)
	}
	for name, rec := range bad {
		for _, region := range []string{"warm", "timed"} {
			warm, timed := with(rec), mkTrace(good...)
			if region == "timed" {
				warm, timed = mkTrace(good...), with(rec)
			}
			want := fmt.Sprintf("%s record 3", region)
			for _, proto := range []Protocol{Snooping, Multicast} {
				cfg := DefaultConfig(proto)
				if _, err := simulate(cfg, warm, timed); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s in the %s region, %v: Simulate = %v, want an error naming %q", name, region, proto, err, want)
				}
				job := NewJob(warm, timed)
				var shells Shells
				for run := 0; run < 2; run++ {
					if _, err := SimulateWarm(context.Background(), cfg, job, &shells); err == nil || !strings.Contains(err.Error(), want) {
						t.Errorf("%s in the %s region, %v, shared run %d: SimulateWarm = %v, want an error naming %q", name, region, proto, run, err, want)
					}
				}
			}
		}
	}
}

// negativeLen is a Source that reports a negative length.
type negativeLen struct{ records }

func (*negativeLen) Len() int { return -1 }

// TestNegativeLengthIsRefused: a Source that reports a negative length,
// as either region, is refused with an error naming the region instead
// of panicking where the region is laid out or replayed.
func TestNegativeLengthIsRefused(t *testing.T) {
	tr := mkTrace(trace.Record{Addr: 32, Requester: 1})
	neg := &negativeLen{records{nodes: 16}}
	for region, src := range map[string][2]Source{"warm": {neg, tr}, "timed": {tr, neg}} {
		_, err := Simulate(context.Background(), DefaultConfig(Snooping), src[0], src[1])
		if want := region + " source has length -1"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("negative %s length: Simulate = %v, want an error naming %q", region, err, want)
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
