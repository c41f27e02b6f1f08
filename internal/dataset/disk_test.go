package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/trace"
	"destset/internal/workload"
)

// equalDatasets compares every record, annotation, block statistic and
// the parameter identity of two datasets.
func equalDatasets(t *testing.T, got, want *Dataset) {
	t.Helper()
	if got.Warm() != want.Warm() || got.Measure() != want.Measure() || got.Nodes() != want.Nodes() {
		t.Fatalf("shape (%d,%d,%d) vs (%d,%d,%d)",
			got.Warm(), got.Measure(), got.Nodes(), want.Warm(), want.Measure(), want.Nodes())
	}
	if kg, kw := KeyOf(got.Params(), got.Warm(), got.Measure()), KeyOf(want.Params(), want.Warm(), want.Measure()); kg != kw {
		t.Fatalf("params identity diverged:\n%s\nvs\n%s", kg.Source, kw.Source)
	}
	for i := 0; i < want.Len(); i++ {
		gr, gm := got.At(i)
		wr, wm := want.At(i)
		if gr != wr || gm != wm {
			t.Fatalf("record %d: (%+v, %+v) vs (%+v, %+v)", i, gr, gm, wr, wm)
		}
	}
	gs, ws := got.BlockStats(), want.BlockStats()
	if len(gs) != len(ws) {
		t.Fatalf("%d block stats, want %d", len(gs), len(ws))
	}
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("block stat %d: %+v vs %+v", i, gs[i], ws[i])
		}
	}
}

// TestDiskRoundTrip is the format fidelity property: a dataset written
// to disk and loaded back (zero-copy) is byte-identical — every record,
// every annotation, every block statistic, and the parameter identity
// that keys the store.
func TestDiskRoundTrip(t *testing.T) {
	p := testParams(t, 11)
	want, err := Generate(p, 700, 900)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rt.dset")
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	equalDatasets(t, got, want)

	// A replay cursor over the loaded dataset matches one over the
	// generated dataset, record for record.
	rg, rw := got.Replay(), want.Replay()
	for rw.Remaining() > 0 {
		gr, gm := rg.Next()
		wr, wm := rw.Next()
		if gr != wr || gm != wm {
			t.Fatalf("replay diverged: (%+v,%+v) vs (%+v,%+v)", gr, gm, wr, wm)
		}
	}
}

// TestDiskWriteDeterministic pins the format: the same dataset always
// serializes to the same bytes (the CI shard smoke job diffs files).
func TestDiskWriteDeterministic(t *testing.T) {
	d, err := Generate(testParams(t, 12), 300, 300)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := d.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two serializations of the same dataset differ")
	}
	if !Sniff(a.Bytes()) {
		t.Error("Sniff does not recognize a dataset file")
	}
	if Sniff([]byte("DSPT....")) {
		t.Error("Sniff accepts the legacy trace magic")
	}
}

// countingWriter keeps the bytes written to it and counts Write calls.
type countingWriter struct {
	bytes.Buffer
	calls int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.calls++
	return w.Buffer.Write(b)
}

// encode serializes d through the native (zero-copy columns) or the
// portable (big-endian hosts') path and returns the bytes and the
// number of Write calls.
func encode(t *testing.T, d *Dataset, native bool) ([]byte, int) {
	t.Helper()
	var w countingWriter
	if _, err := d.writeTo(&w, native); err != nil {
		t.Fatal(err)
	}
	return w.Bytes(), w.calls
}

// maxWrites bounds the Write calls of one encoding of d: the header,
// the parameter blob, three paddings and the eight columns take at most
// 16, the block statistics one per chunk, and on the portable path each
// 8- or 4-byte column one per chunk instead of one.
func maxWrites(d *Dataset, native bool) int {
	chunks := func(n int) int { return (n + chunkStats*statLen - 1) / (chunkStats * statLen) }
	bound := 16 + chunks(statLen*d.nstats)
	if !native {
		bound += 3*(chunks(8*d.n)-1) + chunks(4*d.n) - 1
	}
	return bound
}

// manyStatsDataset is a generated dataset whose block-statistic table
// is replaced by one that spans three full chunks and part of a fourth.
func manyStatsDataset(t *testing.T) *Dataset {
	t.Helper()
	d, err := Generate(testParams(t, 16), 500, 500)
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]coherence.BlockStat, 3*chunkStats+17)
	for i := range stats {
		stats[i] = coherence.BlockStat{
			Addr:    trace.Addr(3 * i),
			Touched: nodeset.Set(uint64(i) * 0x9e3779b97f4a7c15),
			Misses:  uint32(i),
		}
	}
	d.blockStats, d.nstats = stats, len(stats)
	return d
}

// TestWriteToMakesFewLargeWrites pins the encoder's write pattern: the
// block statistics go out chunkStats at a time, not one write each, so
// a bare *os.File needs no buffering in front of WriteTo.
func TestWriteToMakesFewLargeWrites(t *testing.T) {
	d := manyStatsDataset(t)
	var w countingWriter
	if _, err := d.WriteTo(&w); err != nil {
		t.Fatal(err)
	}
	if bound := 16 + (d.nstats+chunkStats-1)/chunkStats; w.calls > bound {
		t.Errorf("WriteTo made %d Write calls for %d block stats, want at most %d", w.calls, d.nstats, bound)
	}
	got, err := Decode(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	equalDatasets(t, got, d)
}

// TestPortableEncodingMatchesNative drives the big-endian hosts'
// encoding path, which converts every 8- and 4-byte column through the
// chunk, on this host: it must write the same bytes as the native path
// within the same bound on Write calls — for columns that fit one chunk
// and for columns that span several.
func TestPortableEncodingMatchesNative(t *testing.T) {
	long, err := Generate(testParams(t, 17), 6000, 6000)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Dataset{"many stats": manyStatsDataset(t), "long columns": long} {
		native, _ := encode(t, d, true)
		portable, calls := encode(t, d, false)
		if !bytes.Equal(portable, native) {
			t.Errorf("%s: the portable path wrote different bytes", name)
		}
		if bound := maxWrites(d, false); calls > bound {
			t.Errorf("%s: the portable path made %d Write calls, want at most %d", name, calls, bound)
		}
	}
}

// TestPaperDatasetBytesPinned pins the encoding, and the generator
// behind it, to the files the format has always written: every paper
// workload at seed 1 and 2,000 + 2,000 misses serializes to the same
// sha256 through both encoding paths.
func TestPaperDatasetBytesPinned(t *testing.T) {
	want := map[string]string{
		"apache":     "ed704e8b2f68fda9401b6761ae8197757b8dbf3f3c268e1b7f59502b27faabfa",
		"barnes-hut": "da53f2163b03b00d574ee7f61719fbb7da8a4e92fda149f77190f9b87f8985b8",
		"ocean":      "ec7c98b806663842a0f97b206f1152ea17746e130f1143321c51758492468dc1",
		"oltp":       "6a3704131e0b49037b1abda4c17d3031fc53683022ea6a47910c4fdc1a4006da",
		"slashcode":  "c19c7d80a08b03fff7bf8748b5b0c2f47518bd5a6acdf49ac24d2dcce4a874ab",
		"specjbb":    "cd0817300cf76958c08e6ac5ecc04e9893638de238e719d778bbb3f067a4107a",
	}
	for _, name := range workload.PaperNames() {
		p, err := workload.Preset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Generate(p, 2000, 2000)
		if err != nil {
			t.Fatal(err)
		}
		for _, native := range []bool{true, false} {
			b, calls := encode(t, d, native)
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != want[name] {
				t.Errorf("%s (native %v): sha256 %s, want %s", name, native, got, want[name])
			}
			if bound := maxWrites(d, native); calls > bound {
				t.Errorf("%s (native %v): %d Write calls, want at most %d", name, native, calls, bound)
			}
		}
	}
}

// TestDecodeRejectsCorruption flips and truncates bytes across the file
// and requires every damaged variant to be rejected, never half-loaded.
func TestDecodeRejectsCorruption(t *testing.T) {
	d, err := Generate(testParams(t, 13), 200, 200)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Decode(raw); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		b := mutate(append([]byte(nil), raw...))
		if _, err := Decode(b); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	corrupt("future version", func(b []byte) []byte { b[8] = 99; return b })
	corrupt("flipped payload byte", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })
	corrupt("flipped last byte", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b })
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-7] })
	corrupt("truncated to header", func(b []byte) []byte { return b[:64] })
	corrupt("extended", func(b []byte) []byte { return append(b, 0) })
	corrupt("empty", func([]byte) []byte { return nil })
	corrupt("absurd count", func(b []byte) []byte {
		for i := 16; i < 24; i++ {
			b[i] = 0xff
		}
		return b
	})
}

// TestStoreDiskTier is the tiered-store acceptance test: a cold store
// pointed at a warm directory loads from disk and performs zero
// generations; purging memory does not invalidate disk entries; a
// corrupted disk entry falls back to generation and is healed.
func TestStoreDiskTier(t *testing.T) {
	dir := t.TempDir()
	p := testParams(t, 14)
	key := KeyOf(p, 250, 250)
	gen := func() (*Dataset, error) { return Generate(p, 250, 250) }

	warm := NewStore()
	if err := warm.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	want, err := warm.Get(key, gen)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Generations != 1 || st.DiskHits != 0 || st.DiskMisses != 1 {
		t.Fatalf("warm store stats after first Get: %+v", st)
	}
	if _, err := os.Stat(key.Path(dir)); err != nil {
		t.Fatalf("generated dataset was not spilled: %v", err)
	}

	// Memory purge must not orphan or invalidate disk entries: the next
	// Get reloads from disk, with zero generations.
	if n := warm.Purge(); n != 1 {
		t.Fatalf("Purge dropped %d, want 1", n)
	}
	reloaded, err := warm.Get(key, gen)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Stats(); st.Generations != 1 || st.DiskHits != 1 {
		t.Fatalf("stats after purge+reload: %+v", st)
	}
	equalDatasets(t, reloaded, want)

	// A fresh store on the same directory — a cold process — also loads
	// with zero generations.
	cold := NewStore()
	if err := cold.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	fromDisk, err := cold.Get(key, gen)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Generations != 0 || st.DiskHits != 1 || st.MemMisses != 1 {
		t.Fatalf("cold store stats: %+v", st)
	}
	equalDatasets(t, fromDisk, want)
	// And the reload is a memory hit thereafter.
	if _, err := cold.Get(key, gen); err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.MemHits != 1 {
		t.Fatalf("stats after warm re-Get: %+v", st)
	}

	// Corrupt the disk entry: the next cold store rejects it, counts a
	// disk miss, regenerates, and heals the file in place.
	path := key.Path(dir)
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
	regen, err := healed.Get(key, gen)
	if err != nil {
		t.Fatal(err)
	}
	if st := healed.Stats(); st.Generations != 1 || st.DiskHits != 0 || st.DiskMisses != 1 {
		t.Fatalf("stats after corrupted load: %+v", st)
	}
	equalDatasets(t, regen, want)
	verify := NewStore()
	if err := verify.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Get(key, gen); err != nil {
		t.Fatal(err)
	}
	if st := verify.Stats(); st.DiskHits != 1 {
		t.Fatalf("corrupted file was not healed: %+v", st)
	}
}

// TestStorePurgeDir drops the disk tier without touching memory
// residents.
func TestStorePurgeDir(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	p := testParams(t, 15)
	key := KeyOf(p, 100, 100)
	if _, err := s.Get(key, func() (*Dataset, error) { return Generate(p, 100, 100) }); err != nil {
		t.Fatal(err)
	}
	// An orphaned temp file (a crash between WriteFile's create and
	// rename) must be cleaned up too.
	if err := os.WriteFile(filepath.Join(dir, ".dset-orphan"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := s.PurgeDir()
	if err != nil || n != 2 {
		t.Fatalf("PurgeDir = (%d, %v), want (2, nil): orphaned temp files must be removed", n, err)
	}
	if st := s.Stats(); st.Datasets != 1 {
		t.Fatalf("PurgeDir evicted memory residents: %+v", st)
	}
	if _, err := os.Stat(key.Path(dir)); !os.IsNotExist(err) {
		t.Fatalf("disk entry survived PurgeDir: %v", err)
	}
	// No directory configured: PurgeDir is a no-op.
	bare := NewStore()
	if n, err := bare.PurgeDir(); n != 0 || err != nil {
		t.Fatalf("PurgeDir without a dir = (%d, %v)", n, err)
	}
}

// TestStoreCountsSpillErrors: a dataset the disk tier cannot save is
// still served (the spill is best-effort), and the failure shows in
// SpillErrors instead of only in later cold starts.
func TestStoreCountsSpillErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "datasets")
	s := NewStore()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	// With the directory gone CreateTemp fails, even for root.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	p := testParams(t, 18)
	get := func(key Key) {
		t.Helper()
		if _, err := s.Get(key, func() (*Dataset, error) { return Generate(p, key.Warm, key.Measure) }); err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	get(KeyOf(p, 100, 100))
	if st := s.Stats(); st.SpillErrors != 1 || st.Generations != 1 {
		t.Fatalf("stats after a failed spill: %+v", st)
	}
	// A working directory again: the next spill lands and counts no
	// error.
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	key := KeyOf(p, 120, 120)
	get(key)
	if st := s.Stats(); st.SpillErrors != 1 || st.Generations != 2 {
		t.Fatalf("stats after a good spill: %+v", st)
	}
	if _, err := os.Stat(key.Path(dir)); err != nil {
		t.Fatalf("dataset was not spilled: %v", err)
	}
}
