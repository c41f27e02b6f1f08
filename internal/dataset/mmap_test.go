package dataset

import (
	"os"
	"runtime"
	"testing"
	"time"

	"destset/internal/memtest"
)

// seedDir spills one dataset file for key into dir and returns the
// generated reference dataset.
func seedDir(t *testing.T, dir string, seed uint64, warm, measure int) (Key, *Dataset) {
	t.Helper()
	p := testParams(t, seed)
	key := KeyOf(p, warm, measure)
	ref, err := Generate(p, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(key.Path(dir), ref); err != nil {
		t.Fatal(err)
	}
	return key, ref
}

// TestMmapColdStart pins the mmap tier's happy path: a cold store over a
// warm directory serves the dataset zero-copy from a mapping — a disk
// hit and a map hit, no generation — and the loaded columns replay
// identically to the generated original.
func TestMmapColdStart(t *testing.T) {
	if !mmapSupported || !hostLittle {
		t.Skip("no mmap path on this platform")
	}
	dir := t.TempDir()
	key, ref := seedDir(t, dir, 21, 300, 300)

	s := NewStore()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := s.Get(key, func() (*Dataset, error) {
		t.Fatal("generated despite a warm disk tier")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	equalDatasets(t, ds, ref)
	if ds.mp == nil {
		t.Fatal("disk hit did not come from the mmap tier")
	}
	st := s.Stats()
	if st.Generations != 0 || st.DiskHits != 1 || st.MapHits != 1 {
		t.Fatalf("stats = %+v, want 1 disk hit served by mmap and 0 generations", st)
	}
	if st.MappedBytes <= 0 {
		t.Fatalf("MappedBytes = %d, want > 0 while the dataset is resident", st.MappedBytes)
	}
}

// TestMmapOffUsesCopyPath pins SetMmap(false): disk hits still work,
// through ReadFile, with no mapping created.
func TestMmapOffUsesCopyPath(t *testing.T) {
	dir := t.TempDir()
	key, ref := seedDir(t, dir, 22, 250, 250)

	s := NewStore()
	s.SetMmap(false)
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := s.Get(key, func() (*Dataset, error) {
		t.Fatal("generated despite a warm disk tier")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	equalDatasets(t, ds, ref)
	if ds.mp != nil {
		t.Fatal("SetMmap(false) still produced a mapping")
	}
	st := s.Stats()
	if st.DiskHits != 1 || st.MapHits != 0 || st.MappedBytes != 0 {
		t.Fatalf("stats = %+v, want a copy-path disk hit", st)
	}
}

// TestMmapCorruptionStillDetected pins that the lazy-CRC contract only
// skips re-verification: a fresh store (nothing verified yet) must
// catch a bit flip in an mmap-opened file and heal by regenerating.
func TestMmapCorruptionStillDetected(t *testing.T) {
	if !mmapSupported || !hostLittle {
		t.Skip("no mmap path on this platform")
	}
	dir := t.TempDir()
	key, ref := seedDir(t, dir, 23, 200, 200)
	path := key.Path(dir)

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0x40
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s := NewStore()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	gens := 0
	ds, err := s.Get(key, func() (*Dataset, error) {
		gens++
		return Generate(testParams(t, 23), 200, 200)
	})
	if err != nil {
		t.Fatal(err)
	}
	equalDatasets(t, ds, ref)
	if gens != 1 {
		t.Fatalf("generations = %d, want 1 (corrupted file must miss)", gens)
	}
	st := s.Stats()
	if st.DiskMisses != 1 || st.MapHits != 0 {
		t.Fatalf("stats = %+v, want the corrupted file counted as one disk miss", st)
	}
	// The heal rewrote the file; a second cold store maps it cleanly.
	s2 := NewStore()
	if err := s2.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	healed, err := s2.Get(key, func() (*Dataset, error) {
		t.Fatal("generated after heal")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	equalDatasets(t, healed, ref)
	if st := s2.Stats(); st.MapHits != 1 {
		t.Fatalf("stats after heal = %+v, want an mmap hit", st)
	}
}

// TestMmapSurvivesPurgeAndHeal is the live-view regression test: views
// opened on an mmap-backed dataset (a Replayer mid-replay and a Region)
// must stay valid through PurgeDir, a rename-over heal of the same
// file, and a memory-tier purge — the mapping is only unmapped after
// the last reader lets go, observable as MappedBytes returning to zero.
func TestMmapSurvivesPurgeAndHeal(t *testing.T) {
	if !mmapSupported || !hostLittle {
		t.Skip("no mmap path on this platform")
	}
	const warm, measure = 400, 400
	dir := t.TempDir()
	key, ref := seedDir(t, dir, 24, warm, measure)

	s := NewStore()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := s.Get(key, func() (*Dataset, error) {
		t.Fatal("generated despite a warm disk tier")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ds.mp == nil {
		t.Fatal("disk hit did not come from the mmap tier")
	}

	// Open views, replay halfway.
	r, want := ds.Replay(), ref.Replay()
	region := ds.MeasureRegion()
	for i := 0; i < warm; i++ {
		got, gotMI := r.Next()
		exp, expMI := want.Next()
		if got != exp || gotMI != expMI {
			t.Fatalf("record %d diverged before purge", i)
		}
	}

	// Remove the file, heal it back (rename-over), purge the memory
	// tier. None of it may disturb the established mapping.
	if n, err := s.PurgeDir(); err != nil || n != 1 {
		t.Fatalf("PurgeDir = (%d, %v), want (1, nil)", n, err)
	}
	if err := WriteFile(key.Path(dir), ref); err != nil {
		t.Fatal(err)
	}
	s.Purge()

	for i := warm; i < warm+measure; i++ {
		got, gotMI := r.Next()
		exp, expMI := want.Next()
		if got != exp || gotMI != expMI {
			t.Fatalf("record %d diverged after purge+heal", i)
		}
	}
	for i := 0; i < region.Len(); i++ {
		if got, exp := region.Record(i), ref.MeasureRegion().Record(i); got != exp {
			t.Fatalf("region record %d diverged after purge+heal", i)
		}
	}

	// Drop every reference; the cleanup must unmap and the store's
	// mapped footprint must drain to zero.
	r, want, region, ds = nil, nil, Region{}, nil
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if s.Stats().MappedBytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("MappedBytes = %d, never drained after the last reader released", s.Stats().MappedBytes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	_ = r
	_ = want
	_ = region
}

// TestMmapVerifiesOnceThenTrusts pins the lazy-CRC contract directly: a
// store that verified (or wrote) a key once skips the checksum scan on
// later opens of the same key.
func TestMmapVerifiesOnceThenTrusts(t *testing.T) {
	if !mmapSupported || !hostLittle {
		t.Skip("no mmap path on this platform")
	}
	dir := t.TempDir()
	key, _ := seedDir(t, dir, 25, 200, 200)

	s := NewStore()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key, nil); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	verified := s.verified[key]
	s.mu.Unlock()
	if !verified {
		t.Fatal("first mmap open did not record the key as verified")
	}
	// Purge memory and corrupt the *payload* (header intact). A trusted
	// reopen skips the CRC scan, so it must still load — the documented
	// tradeoff that makes steady-state reopens O(touched pages).
	s.Purge()
	path := key.Path(dir)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-1] ^= 0x01
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key, nil); err != nil {
		t.Fatalf("trusted reopen failed: %v", err)
	}
	if st := s.Stats(); st.MapHits != 2 || st.Generations != 0 {
		t.Fatalf("stats = %+v, want two mmap hits and no generations", st)
	}
}

// TestMmapColdStartAllocAdvantage pins the headline win: a cold-store
// load through the mmap tier must allocate at least 5x fewer bytes than
// the copy path on a 40k-miss dataset, the scale of perfbench's
// dataset.load_* probes — the mapping replaces the whole-file read, so
// the copy path scales with the file while mmap stays at the metadata
// constant.
func TestMmapColdStartAllocAdvantage(t *testing.T) {
	if !mmapSupported || !hostLittle {
		t.Skip("no mmap path on this platform")
	}
	dir := t.TempDir()
	key, _ := seedDir(t, dir, 26, 20_000, 20_000)

	bytesPerLoad := func(mmap bool) float64 {
		b, _ := memtest.PerRun(8, func() {
			s := NewStore()
			s.SetMmap(mmap)
			if err := s.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(key, nil); err != nil {
				t.Fatal(err)
			}
		})
		return b
	}

	copyB := bytesPerLoad(false)
	mmapB := bytesPerLoad(true)
	t.Logf("cold-start alloc: copy %.0f B/load, mmap %.0f B/load (%.0fx)", copyB, mmapB, copyB/mmapB)
	if copyB < 5*mmapB {
		t.Fatalf("mmap cold start allocates %.0f B/load vs copy's %.0f — want at least a 5x advantage", mmapB, copyB)
	}
}
