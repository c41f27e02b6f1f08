package sim

import (
	"context"
	"fmt"
	"runtime/debug"
	"testing"

	"destset/internal/cache"
	"destset/internal/coherence"
	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/trace"
)

func TestLatencyPercentilesOrdered(t *testing.T) {
	warm, timed := workloadTraces(t, 3000, 3000)
	res := run(t, DefaultConfig(Directory), warm, timed)
	if res.LatencyP50Ns <= 0 {
		t.Fatalf("p50 = %v", res.LatencyP50Ns)
	}
	if res.LatencyP50Ns > res.LatencyP90Ns || res.LatencyP90Ns > res.LatencyP99Ns {
		t.Errorf("percentiles out of order: p50=%v p90=%v p99=%v",
			res.LatencyP50Ns, res.LatencyP90Ns, res.LatencyP99Ns)
	}
	// The directory protocol's latencies live between the 2-hop memory
	// fetch and the 3-hop forward (plus queuing).
	if res.LatencyP50Ns < 100 || res.LatencyP99Ns > 2000 {
		t.Errorf("implausible latency range: p50=%v p99=%v", res.LatencyP50Ns, res.LatencyP99Ns)
	}
}

func TestBandwidthContentionSlowsSnooping(t *testing.T) {
	// Starving the links must hurt snooping far more than the directory
	// protocol (the §1 bandwidth argument).
	warm, timed := workloadTraces(t, 3000, 6000)
	fast := DefaultConfig(Snooping)
	slow := DefaultConfig(Snooping)
	slow.Interconnect.BytesPerNs = 0.3
	fastRes := run(t, fast, warm, timed)
	slowRes := run(t, slow, warm, timed)
	if slowRes.RuntimeNs < fastRes.RuntimeNs*1.3 {
		t.Errorf("0.3 B/ns snooping runtime %.0f should be much worse than 10 B/ns %.0f",
			slowRes.RuntimeNs, fastRes.RuntimeNs)
	}

	fastDir := run(t, DefaultConfig(Directory), warm, timed)
	slowCfg := DefaultConfig(Directory)
	slowCfg.Interconnect.BytesPerNs = 0.3
	slowDir := run(t, slowCfg, warm, timed)
	snoopSlowdown := slowRes.RuntimeNs / fastRes.RuntimeNs
	dirSlowdown := slowDir.RuntimeNs / fastDir.RuntimeNs
	if dirSlowdown >= snoopSlowdown {
		t.Errorf("directory slowdown %.2fx should be below snooping's %.2fx",
			dirSlowdown, snoopSlowdown)
	}
}

// TestWarmUpQueuesNoTraffic pins §5.2's instantaneous warm-up, and the
// exactness of shared warm-ups, on a 64 KB L2, where the warm region
// evicts dirty lines. One Job and one free list of shells serve every
// protocol in turn, each over two rounds of both CPU models: the first
// cell builds the snapshot and every later cell restores it into the
// shell the cell before handed back. Each must start its timed run with
// nothing queued and the writeback hook installed, and equal a one-call
// run: a writeback leaked by the build would add traffic that a restore,
// which calls no hook, cannot. A run with no warm region on the reused
// shell must equal a one-call cold run.
func TestWarmUpQueuesNoTraffic(t *testing.T) {
	warm, timed := simStreams(t, 20_000, 4_000)
	ctx := context.Background()
	job := NewJob(warm, timed)
	var shells Shells
	for _, proto := range []Protocol{Snooping, Directory, Multicast} {
		t.Run(proto.String(), func(t *testing.T) {
			for round := 0; round < 2; round++ {
				for _, cpu := range []CPUModel{SimpleCPU, DetailedCPU} {
					name := fmt.Sprintf("round %d %v/%v", round, proto, cpu)
					cfg := DefaultConfig(proto)
					cfg.CPU = cpu
					cfg.Coherence.L2 = cache.Config{SizeBytes: 64 << 10, Ways: 4, BlockBytes: 64}
					want, err := Simulate(ctx, cfg, warm, timed)
					if err != nil {
						t.Fatal(err)
					}
					s := shells.get(cfg)
					if err := job.warmUp(ctx, s.coh, s.preds); err != nil {
						t.Fatal(err)
					}
					if s.coh.Writebacks() == 0 {
						t.Fatalf("%s: warm-up evicted no dirty line; the test needs a smaller L2", name)
					}
					if !s.loop.Empty() {
						t.Errorf("%s: warm-up left events queued for the timed run", name)
					}
					s.start(mustLayout(t, job))
					if s.coh.OnWriteback == nil {
						t.Errorf("%s: the timed run starts without the writeback hook", name)
					}
					got, err := s.finish(ctx)
					if err != nil {
						t.Fatal(err)
					}
					shells.put(s)
					if got != want {
						t.Errorf("%s: shared warm-up run differs from a one-call run\n got %+v\nwant %+v", name, got, want)
					}
					want, err = Simulate(ctx, cfg, nil, timed)
					if err != nil {
						t.Fatal(err)
					}
					if got, err = SimulateWarm(ctx, cfg, NewJob(nil, timed), &shells); err != nil || got != want {
						t.Errorf("%s: cold run on a reused shell differs from a one-call run (%v)\n got %+v\nwant %+v", name, err, got, want)
					}
				}
			}
		})
	}
	if len(shells.free) != 1 {
		t.Errorf("free list holds %d shells after sequential runs, want 1", len(shells.free))
	}
}

func TestWritebackTrafficCounted(t *testing.T) {
	// Tiny caches force dirty evictions; writebacks must appear in the
	// endpoint traffic of every protocol.
	cfg := DefaultConfig(Snooping)
	cfg.Coherence = coherence.Config{
		Nodes: 16,
		L2:    cache.Config{SizeBytes: 2 * 64, Ways: 2, BlockBytes: 64},
	}
	// One node writes blocks that map to the same set, evicting dirty
	// lines; victims' homes differ from the writer.
	var recs []trace.Record
	for i := 0; i < 8; i++ {
		recs = append(recs, trace.Record{
			Addr:      trace.Addr(1 + 2*i), // odd blocks, same tiny cache
			Requester: 5,
			Kind:      trace.GetExclusive,
			Gap:       100,
		})
	}
	res := run(t, cfg, nil, mkTrace(recs...))
	// 8 GETX broadcasts: 8*15*8B requests + 8*72B data = 1536 B minimum;
	// evictions add 72 B writebacks beyond that.
	base := uint64(8*15*8 + 8*72)
	if res.EndpointBytes <= base {
		t.Errorf("endpoint bytes %d should exceed %d (writebacks missing)", res.EndpointBytes, base)
	}
}

func TestMulticastRaceRetriesBounded(t *testing.T) {
	// Even with the Minimal policy (every shared miss retried) and heavy
	// same-block contention, no transaction may exceed MaxAttempts.
	p := smallContentionTrace()
	cfg := DefaultConfig(Multicast)
	cfg.Predictor = predictor.Config{Policy: predictor.Minimal, Nodes: 16}
	cfg.CPU = DetailedCPU
	res := run(t, cfg, nil, p)
	if res.Misses != uint64(p.Len()) {
		t.Fatalf("completed %d/%d", res.Misses, p.Len())
	}
	maxRetries := uint64(cfg.MaxAttempts-1) * res.Misses
	if res.Retries > maxRetries {
		t.Errorf("retries %d exceed bound %d", res.Retries, maxRetries)
	}
	if res.Retries == 0 {
		t.Error("contended minimal-policy run should retry at least once")
	}
}

// smallContentionTrace makes many nodes hammer two blocks concurrently.
func smallContentionTrace() *records {
	tr := mkTrace()
	for i := 0; i < 200; i++ {
		tr.recs = append(tr.recs, trace.Record{
			Addr:      trace.Addr(32 + i%2),
			Requester: uint8(i % 16),
			Kind:      trace.GetExclusive,
			Gap:       1,
		})
	}
	return tr
}

func TestMulticastOracleMatchesSnoopingLatencyCheaper(t *testing.T) {
	warm, timed := workloadTraces(t, 3000, 3000)
	snoop := run(t, DefaultConfig(Snooping), warm, timed)
	oc := DefaultConfig(Multicast)
	oc.Predictor = predictor.Config{Policy: predictor.Oracle, Nodes: 16}
	oracle := run(t, oc, warm, timed)
	// The oracle is primed at issue time; a racing request ordered in the
	// issue->ordering window can still stale it, so allow a tiny residue.
	if float64(oracle.Retries) > 0.005*float64(oracle.Misses) {
		t.Errorf("oracle retried %d/%d times", oracle.Retries, oracle.Misses)
	}
	if oracle.RuntimeNs > snoop.RuntimeNs*1.05 {
		t.Errorf("oracle runtime %.0f should match snooping %.0f", oracle.RuntimeNs, snoop.RuntimeNs)
	}
	if oracle.BytesPerMiss() >= snoop.BytesPerMiss()*0.7 {
		t.Errorf("oracle traffic %.0f should be far below snooping %.0f",
			oracle.BytesPerMiss(), snoop.BytesPerMiss())
	}
}

func TestMOESITimingRuns(t *testing.T) {
	// The timing simulator composes with the MOESI oracle variant.
	warm, timed := workloadTraces(t, 2000, 2000)
	cfg := DefaultConfig(Directory)
	cfg.Coherence = coherence.DefaultConfig()
	cfg.Coherence.TrackBlockStats = false
	cfg.Coherence.Exclusive = true
	res := run(t, cfg, warm, timed)
	if res.Misses != uint64(timed.Len()) {
		t.Errorf("completed %d/%d", res.Misses, timed.Len())
	}
}

func TestDetailedMSHRLimitRespected(t *testing.T) {
	recs := make([]trace.Record, 20)
	for i := range recs {
		recs[i] = trace.Record{Addr: trace.Addr(32 + 16*i), Requester: 1, Kind: trace.GetShared, Gap: 1}
	}
	cfg := DefaultConfig(Snooping)
	cfg.CPU = DetailedCPU
	cfg.MSHRs = 2
	cfg.ROBWindow = 1 << 20
	res := run(t, cfg, nil, mkTrace(recs...))
	if res.MaxOutstanding > 2 {
		t.Errorf("max outstanding %d exceeds MSHR limit 2", res.MaxOutstanding)
	}
}

func TestProtocolStrings(t *testing.T) {
	if Snooping.String() != "snooping" || Directory.String() != "directory" || Multicast.String() != "multicast" {
		t.Error("protocol names wrong")
	}
	if Protocol(9).String() != "Protocol(9)" {
		t.Error("unknown protocol should format numerically")
	}
}

// hidden wraps a bank member so that its concrete type is out of sight.
type hidden struct{ predictor.Predictor }

// TestRestoredBankWithoutStep: a multicast run whose NewBank bank has no
// bank step (its members hide their type, so predictor.StepOf gives
// none) trains member by member over the warm-up's recorded columns. A
// run that builds a shared job's warm-up, and one that restores it into
// the shell the first handed back, must each equal the same run with a
// private job and no free list.
func TestRestoredBankWithoutStep(t *testing.T) {
	warm, timed := simStreams(t, 6_000, 3_000)
	ctx := context.Background()
	cfg := DefaultConfig(Multicast)
	cfg.NewBank = func() []predictor.Predictor {
		bank := predictor.NewBank(cfg.Predictor)
		for i, p := range bank {
			bank[i] = hidden{p}
		}
		return bank
	}
	if predictor.StepOf(cfg.NewBank()) != nil {
		t.Fatal("a bank of hidden members has a bank step")
	}
	want, err := SimulateWarm(ctx, cfg, &Job{warm: warm, timed: timed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	job := NewJob(warm, timed)
	var shells Shells
	for _, run := range []string{"built", "restored"} {
		got, err := SimulateWarm(ctx, cfg, job, &shells)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s warm-up differs from a private run\n got %+v\nwant %+v", run, got, want)
		}
	}
}

// TestWarmUpTrainsLikeProcess: a bank trained over a job's recorded warm
// columns, whether the job builds its warm-up or restores it, ends where
// the per-miss reference leaves one: Multicast.Process on every warm
// miss with the MissInfo a new oracle's Apply gives it. Every member's
// table counts must match.
func TestWarmUpTrainsLikeProcess(t *testing.T) {
	warm, timed := simStreams(t, 6_000, 1)
	cfg := DefaultConfig(Multicast)
	pc := cfg.Predictor
	pc.Nodes = cfg.Nodes
	ref := predictor.NewBank(pc)
	eng := protocol.NewMulticast(ref)
	coh := coherence.NewSystem(cohConfig(cfg))
	for i := 0; i < warm.Len(); i++ {
		rec := warm.Record(i)
		eng.Process(rec, coh.Apply(rec))
	}
	type counted interface {
		TableStats() (lookups, hits, allocs, evictions uint64, live int)
	}
	stats := func(p predictor.Predictor) [5]uint64 {
		l, h, a, e, n := p.(counted).TableStats()
		return [5]uint64{l, h, a, e, uint64(n)}
	}
	job := NewJob(warm, timed)
	for _, run := range []string{"built", "restored"} {
		bank := predictor.NewBank(pc)
		if err := job.warmUp(context.Background(), coherence.NewSystem(cohConfig(cfg)), bank); err != nil {
			t.Fatal(err)
		}
		for i := range bank {
			if got, want := stats(bank[i]), stats(ref[i]); got != want {
				t.Errorf("%s warm-up: node %d's table counts %v, want %v", run, i, got, want)
			}
		}
	}
}

// TestCallerBanksAreNeverRecycled: a bank from Config.NewBank is the
// caller's. A completed run drops it without recycling it, so no later
// run takes it over, whether through the caller's NewBank or the
// simulator's own; and runs of one configuration agree whichever banks
// they got. The collector is off, so a recycled bank would survive to
// be taken.
func TestCallerBanksAreNeverRecycled(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	warm, timed := simStreams(t, 2000, 2000)
	job := NewJob(warm, timed)
	var shells Shells
	cfg := DefaultConfig(Multicast)
	pc := cfg.Predictor
	pc.Nodes = cfg.Nodes
	var kept [][]predictor.Predictor
	cfg.NewBank = func() []predictor.Predictor {
		kept = append(kept, predictor.NewBank(pc))
		return kept[len(kept)-1]
	}
	own := cfg
	own.NewBank = nil
	var results []Result
	for _, c := range []Config{own, cfg, cfg, own, own} {
		res, err := SimulateWarm(context.Background(), c, job, &shells)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if kept[0][0] == kept[1][0] {
		t.Error("the caller's second bank is its first")
	}
	stats := func() string {
		return fmt.Sprint(kept[0][0].(interface {
			TableStats() (lookups, hits, allocs, evictions uint64, live int)
		}).TableStats())
	}
	before := stats()
	if _, err := SimulateWarm(context.Background(), own, job, &shells); err != nil {
		t.Fatal(err)
	}
	if after := stats(); after != before {
		t.Errorf("a later run trained the caller's bank: %s, then %s", before, after)
	}
	for i, res := range results {
		if res != results[0] {
			t.Errorf("run %d: %+v, first run %+v", i, res, results[0])
		}
	}
}
