package dataset

import (
	"fmt"
	"sync"
	"testing"

	"destset/internal/coherence"
	"destset/internal/trace"
	"destset/internal/workload"
)

func testParams(t *testing.T, seed uint64) workload.Params {
	t.Helper()
	p, err := workload.Preset("barnes-hut", seed)
	if err != nil {
		t.Fatal(err)
	}
	// Small streaming regions keep the oracle's block table (and the
	// test) small without changing any code path.
	p.SharedUnits = 200
	p.StreamBlocksPerNode = 4096
	return p
}

// TestReplayMatchesLiveGenerator is the core fidelity property: replaying
// a dataset yields exactly the records and annotations a live generator
// stream produces (gaps aside, which the dataset rescales per region;
// TestGapsMatchGeneratorGenerate pins them).
func TestReplayMatchesLiveGenerator(t *testing.T) {
	const warm, measure = 1500, 1500
	p := testParams(t, 3)
	d, err := Generate(p, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	r := d.Replay()
	if r.Remaining() != warm+measure {
		t.Fatalf("Remaining = %d, want %d", r.Remaining(), warm+measure)
	}
	for i := 0; i < warm+measure; i++ {
		want, wantMI := g.Next()
		got, gotMI := r.Next()
		want.Gap, got.Gap = 0, 0 // gaps are rescaled; everything else exact
		if got != want {
			t.Fatalf("record %d: replay %+v, live %+v", i, got, want)
		}
		if gotMI != wantMI {
			t.Fatalf("record %d: replay MissInfo %+v, live %+v", i, gotMI, wantMI)
		}
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining after full replay = %d", r.Remaining())
	}
}

// rescaledRegion is the reference each region's gaps are pinned to: the
// next n misses of g, their gaps rescaled so the region realizes mpki
// misses per 1000 instructions despite burst structure, each at least 1.
func rescaledRegion(g *workload.Generator, mpki float64, n int) []trace.Record {
	recs := make([]trace.Record, n)
	var totalGap uint64
	for i := range recs {
		recs[i], _ = g.Next()
		totalGap += uint64(recs[i].Gap)
	}
	target := float64(n) * 1000 / mpki
	if totalGap > 0 {
		scale := target / float64(totalGap)
		for i := range recs {
			gap := float64(recs[i].Gap) * scale
			if gap < 1 {
				gap = 1
			}
			recs[i].Gap = uint32(gap)
		}
	}
	return recs
}

// TestGapsMatchGeneratorGenerate pins each region's records (At) to the
// live generator's, gaps rescaled per region by the reference above, bit
// for bit.
func TestGapsMatchGeneratorGenerate(t *testing.T) {
	const warm, measure = 1200, 800
	p := testParams(t, 5)
	d, err := Generate(p, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	wantWarm := rescaledRegion(g, p.MissesPer1000Instr, warm)
	wantMeas := rescaledRegion(g, p.MissesPer1000Instr, measure)
	for name, region := range map[string]struct {
		lo   int
		want []trace.Record
	}{
		"warm":    {0, wantWarm},
		"measure": {warm, wantMeas},
	} {
		for i, want := range region.want {
			if got, _ := d.At(region.lo + i); got != want {
				t.Fatalf("%s record %d: %+v vs %+v", name, i, got, want)
			}
		}
	}
	if d.Warm() != warm || d.Measure() != measure {
		t.Errorf("regions %d+%d, want %d+%d", d.Warm(), d.Measure(), warm, measure)
	}
}

// TestGapsPositiveAndCalibrated: every gap Generate records is at least
// one instruction, and each region realizes the workload's misses per
// 1000 instructions.
func TestGapsPositiveAndCalibrated(t *testing.T) {
	const warm, measure = 2000, 5000
	p := testParams(t, 7)
	d, err := Generate(p, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	for _, region := range []Region{d.WarmRegion(), d.MeasureRegion()} {
		var instr uint64
		for i := 0; i < region.Len(); i++ {
			rec := region.Record(i)
			if rec.Gap == 0 {
				t.Fatalf("record %d of a %d-record region: gap must be at least 1 instruction", i, region.Len())
			}
			instr += uint64(rec.Gap)
		}
		mpki := 1000 * float64(region.Len()) / float64(instr)
		if mpki < 0.85*p.MissesPer1000Instr || mpki > 1.15*p.MissesPer1000Instr {
			t.Errorf("%d-record region: realized mpki = %.2f, want ~%v", region.Len(), mpki, p.MissesPer1000Instr)
		}
	}
}

// TestBlockStatsMatchSystem checks the compact snapshot against the live
// oracle's per-block statistics.
func TestBlockStatsMatchSystem(t *testing.T) {
	const warm, measure = 1000, 1000
	p := testParams(t, 9)
	d, err := Generate(p, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < warm+measure; i++ {
		g.Next()
	}
	var want []coherence.BlockStat
	g.System().ForEachTouchedBlock(func(b coherence.BlockStat) { want = append(want, b) })
	got := d.BlockStats()
	if len(got) != len(want) {
		t.Fatalf("%d block stats, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("block stat %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestReplayersAreIndependent runs interleaved cursors over one dataset.
func TestReplayersAreIndependent(t *testing.T) {
	p := testParams(t, 2)
	d, err := Generate(p, 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	a, b := d.Replay(), d.Replay()
	for i := 0; i < 200; i++ {
		a.Next()
	}
	recB, _ := b.Next()
	recA0, _ := d.At(0)
	if recB != recA0 {
		t.Errorf("second replayer disturbed by first: %+v vs %+v", recB, recA0)
	}
	b.Rewind()
	recB2, _ := b.Next()
	if recB2 != recA0 {
		t.Errorf("rewound replayer: %+v vs %+v", recB2, recA0)
	}
}

// TestStoreSingleflight hammers one key from many goroutines and counts
// generations; a Purge then empties the memory tier.
func TestStoreSingleflight(t *testing.T) {
	s := NewStore()
	p := testParams(t, 4)
	key := KeyOf(p, 200, 200)
	var gens int
	var mu sync.Mutex
	var wg sync.WaitGroup
	results := make([]*Dataset, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds, err := s.Get(key, func() (*Dataset, error) {
				mu.Lock()
				gens++
				mu.Unlock()
				return Generate(p, 200, 200)
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = ds
		}(i)
	}
	wg.Wait()
	if gens != 1 {
		t.Errorf("generated %d times, want 1", gens)
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Errorf("caller %d got a different dataset pointer", i)
		}
	}
	if st := s.Stats(); st.Datasets != 1 || st.Bytes <= 0 || st.MemHits+st.MemMisses != 16 {
		t.Errorf("stats = %+v", st)
	}
	if n := s.Purge(); n != 1 {
		t.Errorf("Purge dropped %d datasets, want 1", n)
	}
	if st := s.Stats(); st.Datasets != 0 || st.Bytes != 0 {
		t.Errorf("after purge: %d datasets, %d bytes", st.Datasets, st.Bytes)
	}
}

// TestStoreErrorsAreNotCached verifies a failed generation retries.
func TestStoreErrorsAreNotCached(t *testing.T) {
	s := NewStore()
	key := Key{Source: "bad", Warm: 1, Measure: 1}
	calls := 0
	gen := func() (*Dataset, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient")
		}
		return Generate(testParams(t, 1), 50, 50)
	}
	if _, err := s.Get(key, gen); err == nil {
		t.Fatal("first Get should fail")
	}
	if _, err := s.Get(key, gen); err != nil {
		t.Fatalf("second Get should regenerate: %v", err)
	}
	if calls != 2 {
		t.Errorf("generator ran %d times, want 2", calls)
	}
}

// TestPurgeDetachesInFlightGeneration pins the Purge contract: a
// generation in flight when Purge runs completes for its waiters but is
// not cached.
func TestPurgeDetachesInFlightGeneration(t *testing.T) {
	s := NewStore()
	p := testParams(t, 7)
	key := KeyOf(p, 100, 100)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan *Dataset, 1)
	go func() {
		ds, err := s.Get(key, func() (*Dataset, error) {
			close(started)
			<-release
			return Generate(p, 100, 100)
		})
		if err != nil {
			t.Error(err)
		}
		done <- ds
	}()
	<-started
	if n := s.Purge(); n != 0 {
		t.Errorf("Purge dropped %d cached datasets, want 0", n)
	}
	close(release)
	if ds := <-done; ds == nil {
		t.Fatal("waiter did not receive its dataset")
	}
	if st := s.Stats(); st.Datasets != 0 || st.Bytes != 0 {
		t.Errorf("purged-while-generating dataset was cached: %d datasets, %d bytes", st.Datasets, st.Bytes)
	}
	// The key regenerates fresh on next use.
	regen := 0
	if _, err := s.Get(key, func() (*Dataset, error) { regen++; return Generate(p, 100, 100) }); err != nil {
		t.Fatal(err)
	}
	if regen != 1 {
		t.Errorf("detached key regenerated %d times, want 1", regen)
	}
}

// TestKeyOfDistinguishesParams ensures structural parameter differences
// (including slice contents and seeds) produce distinct keys.
func TestKeyOfDistinguishesParams(t *testing.T) {
	a := testParams(t, 1)
	b := testParams(t, 1)
	if KeyOf(a, 10, 10) != KeyOf(b, 10, 10) {
		t.Error("equal params should share a key")
	}
	b.Seed = 2
	if KeyOf(a, 10, 10) == KeyOf(b, 10, 10) {
		t.Error("different seeds must not share a key")
	}
	c := testParams(t, 1)
	c.GroupSizeWeights = append([]float64(nil), c.GroupSizeWeights...)
	c.GroupSizeWeights[2]++
	if KeyOf(a, 10, 10) == KeyOf(c, 10, 10) {
		t.Error("different weight slices must not share a key")
	}
	if KeyOf(a, 10, 10) == KeyOf(a, 10, 20) {
		t.Error("different scales must not share a key")
	}
}
