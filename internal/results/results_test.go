package results

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestStoreMemoryTier pins the always-present tier: miss, store, hit,
// with the counters tracking each step.
func TestStoreMemoryTier(t *testing.T) {
	s := NewStore()
	if _, _, ok := s.Get("fp-1"); ok {
		t.Fatal("empty store reported a hit")
	}
	s.Put("trace", "fp-1", []byte("payload-1"))
	kind, payload, ok := s.Get("fp-1")
	if !ok || kind != "trace" || string(payload) != "payload-1" {
		t.Fatalf("Get after Put = (%q, %q, %t)", kind, payload, ok)
	}
	// Replacing a fingerprint swaps the record without double-counting
	// its bytes.
	s.Put("trace", "fp-1", []byte("payload-2"))
	if _, payload, _ := s.Get("fp-1"); string(payload) != "payload-2" {
		t.Fatalf("replacement not visible: %q", payload)
	}
	st := s.Stats()
	if st.Records != 1 || st.Bytes != int64(len("payload-2")) {
		t.Fatalf("footprint after replacement: %+v", st)
	}
	if st.MemHits != 2 || st.MemMisses != 1 || st.Stores != 2 {
		t.Fatalf("counters: %+v", st)
	}
	// Without a directory the disk counters never move.
	if st.DiskHits != 0 || st.DiskMisses != 0 {
		t.Fatalf("disk counters moved without a disk tier: %+v", st)
	}
}

// TestStoreDiskTier is the tiered-store acceptance test, mirroring the
// dataset store's: records spill to disk on Put; a memory purge does
// not invalidate them; a cold store on the same directory serves them
// with zero stores; a corrupted file is a miss that the next Put heals
// in place.
func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	warm := NewStore()
	if err := warm.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"totals":{"misses":42}}`)
	warm.Put("trace", "fp-disk", payload)
	if _, err := os.Stat(Path(dir, "fp-disk")); err != nil {
		t.Fatalf("stored record was not spilled: %v", err)
	}

	// Memory purge must not orphan or invalidate disk entries: the next
	// Get reloads from disk.
	if n := warm.Purge(); n != 1 {
		t.Fatalf("Purge dropped %d, want 1", n)
	}
	if _, got, ok := warm.Get("fp-disk"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("purge+reload = (%q, %t)", got, ok)
	}
	if st := warm.Stats(); st.DiskHits != 1 || st.DiskMisses != 0 {
		t.Fatalf("stats after purge+reload: %+v", st)
	}

	// A fresh store on the same directory — a cold process — serves the
	// record without any Put.
	cold := NewStore()
	if err := cold.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	kind, got, ok := cold.Get("fp-disk")
	if !ok || kind != "trace" || !bytes.Equal(got, payload) {
		t.Fatalf("cold load = (%q, %q, %t)", kind, got, ok)
	}
	if st := cold.Stats(); st.Stores != 0 || st.DiskHits != 1 || st.MemMisses != 1 {
		t.Fatalf("cold store stats: %+v", st)
	}
	// And the reload is a memory hit thereafter.
	if _, _, ok := cold.Get("fp-disk"); !ok {
		t.Fatal("reloaded record not resident")
	}
	if st := cold.Stats(); st.MemHits != 1 {
		t.Fatalf("stats after warm re-Get: %+v", st)
	}

	// Corrupt the disk file: the next cold store counts a disk miss, the
	// caller recomputes and Puts, and the file is healed in place.
	path := Path(dir, "fp-disk")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	healed := NewStore()
	if err := healed.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := healed.Get("fp-disk"); ok {
		t.Fatal("corrupted file served as a hit")
	}
	if st := healed.Stats(); st.DiskMisses != 1 || st.DiskHits != 0 {
		t.Fatalf("stats after corrupted load: %+v", st)
	}
	healed.Put("trace", "fp-disk", payload)
	verify := NewStore()
	if err := verify.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, got, ok := verify.Get("fp-disk"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("healed record = (%q, %t)", got, ok)
	}
	if st := verify.Stats(); st.DiskHits != 1 {
		t.Fatalf("corrupted file was not healed: %+v", st)
	}
}

// TestStorePurgeDir drops the disk tier — including orphaned temp
// files — without touching memory residents.
func TestStorePurgeDir(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	s.Put("timing", "fp-pd", []byte("payload"))
	// Orphaned temp files (a crash between an atomic write's create and
	// rename) must be cleaned up too: the older writers' name and
	// internal/atomicfile's.
	for _, orphan := range []string{".rslt-orphan", "." + filepath.Base(Path(dir, "fp-pd")) + "-orphan"} {
		if err := os.WriteFile(filepath.Join(dir, orphan), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, err := s.PurgeDir()
	if err != nil || n != 3 {
		t.Fatalf("PurgeDir = (%d, %v), want (3, nil): orphaned temp files must be removed", n, err)
	}
	if st := s.Stats(); st.Records != 1 {
		t.Fatalf("PurgeDir evicted memory residents: %+v", st)
	}
	if _, err := os.Stat(Path(dir, "fp-pd")); !os.IsNotExist(err) {
		t.Fatalf("disk entry survived PurgeDir: %v", err)
	}
	// No directory configured: PurgeDir is a no-op.
	bare := NewStore()
	if n, err := bare.PurgeDir(); n != 0 || err != nil {
		t.Fatalf("PurgeDir without a dir = (%d, %v)", n, err)
	}
}

// TestStoreCountsSpillErrors: a record the disk tier cannot save is
// still stored in memory (the spill is best-effort), and the failure
// shows in SpillErrors instead of only in later cold processes.
func TestStoreCountsSpillErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "results")
	s := NewStore()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	// With the directory gone the temp file cannot be created, even for
	// root.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	s.Put("trace", "fp-lost", []byte("payload"))
	if _, _, ok := s.Get("fp-lost"); !ok {
		t.Fatal("record lost with its spill")
	}
	if st := s.Stats(); st.SpillErrors != 1 || st.Stores != 1 {
		t.Fatalf("stats after a failed spill: %+v", st)
	}
	// A working directory again: the next spill lands and counts no
	// error.
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	s.Put("trace", "fp-kept", []byte("payload"))
	if st := s.Stats(); st.SpillErrors != 1 || st.Stores != 2 {
		t.Fatalf("stats after a good spill: %+v", st)
	}
	if _, err := os.Stat(Path(dir, "fp-kept")); err != nil {
		t.Fatalf("record was not spilled: %v", err)
	}
}

// TestStoreConcurrent exercises the store under concurrent mixed
// traffic; the race detector is the assertion.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	if err := s.SetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 50; i++ {
				fp := fmt.Sprintf("fp-%d", i%8)
				if _, _, ok := s.Get(fp); !ok {
					s.Put("trace", fp, bytes.Repeat([]byte{byte(g)}, 64))
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if st := s.Stats(); st.Records == 0 {
		t.Fatalf("no records resident after concurrent traffic: %+v", st)
	}
}
