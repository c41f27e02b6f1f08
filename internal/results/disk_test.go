package results

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiskRoundTrip is the format fidelity property: a record written
// to disk and loaded back carries the same kind, fingerprint and
// payload bytes.
func TestDiskRoundTrip(t *testing.T) {
	kind, fp := "timing", "27d92db095f11812819a0cf4d610d5b2"
	payload := bytes.Repeat([]byte(`{"runtime_ns":1234.5}`), 40)
	path := filepath.Join(t.TempDir(), "rt.rslt")
	if err := WriteFile(path, kind, fp, payload); err != nil {
		t.Fatal(err)
	}
	gotKind, gotPayload, err := ReadFile(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if gotKind != kind || !bytes.Equal(gotPayload, payload) {
		t.Fatalf("round trip: (%q, %d bytes), want (%q, %d bytes)",
			gotKind, len(gotPayload), kind, len(payload))
	}
	// Empty payloads are legal records too.
	if err := WriteFile(path, kind, fp, nil); err != nil {
		t.Fatal(err)
	}
	if _, gotPayload, err = ReadFile(path, fp); err != nil || len(gotPayload) != 0 {
		t.Fatalf("empty-payload round trip: (%d bytes, %v)", len(gotPayload), err)
	}
}

// TestEncodeDeterministic pins the format: the same record always
// serializes to the same bytes, and Sniff recognizes (only) them.
func TestEncodeDeterministic(t *testing.T) {
	a := Encode("trace", "fp-1", []byte("payload"))
	b := Encode("trace", "fp-1", []byte("payload"))
	if !bytes.Equal(a, b) {
		t.Error("two serializations of the same record differ")
	}
	if !Sniff(a) {
		t.Error("Sniff does not recognize a result file")
	}
	if Sniff([]byte("DSETPLAN")) || Sniff(nil) {
		t.Error("Sniff accepts non-result bytes")
	}
}

// TestPathVersioned pins the content addressing: the path depends on
// the fingerprint (and, by construction, the format version), so two
// cells never collide on a file.
func TestPathVersioned(t *testing.T) {
	dir := t.TempDir()
	p1, p2 := Path(dir, "fp-1"), Path(dir, "fp-2")
	if p1 == p2 {
		t.Fatal("distinct fingerprints mapped to the same path")
	}
	if Path(dir, "fp-1") != p1 {
		t.Fatal("Path is not deterministic")
	}
	if !strings.HasSuffix(p1, ".rslt") {
		t.Fatalf("result file %s does not carry the .rslt extension", p1)
	}
}

// TestDecodeRejectsCorruption flips and truncates bytes across the file
// and requires every damaged variant to be rejected, never half-loaded
// — the mirror of the dataset format's rejection matrix.
func TestDecodeRejectsCorruption(t *testing.T) {
	raw := Encode("timing", "fp-corrupt", bytes.Repeat([]byte("observation "), 25))
	if _, _, _, err := Decode(raw); err != nil {
		t.Fatalf("pristine record rejected: %v", err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		b := mutate(append([]byte(nil), raw...))
		if _, _, _, err := Decode(b); !errors.Is(err, ErrBadFormat) {
			t.Errorf("%s: err = %v, want ErrBadFormat", name, err)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	corrupt("future version", func(b []byte) []byte { b[8] = 99; return b })
	corrupt("flipped kind byte", func(b []byte) []byte { b[headerLen] ^= 0x01; return b })
	corrupt("flipped payload byte", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })
	corrupt("flipped last byte", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b })
	corrupt("flipped checksum", func(b []byte) []byte { b[24] ^= 0x01; return b })
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)-7] })
	corrupt("truncated to header", func(b []byte) []byte { return b[:headerLen] })
	corrupt("truncated mid-header", func(b []byte) []byte { return b[:headerLen/2] })
	corrupt("extended", func(b []byte) []byte { return append(b, 0) })
	corrupt("empty", func([]byte) []byte { return nil })
	corrupt("absurd lengths", func(b []byte) []byte {
		for i := 12; i < 24; i++ {
			b[i] = 0xff
		}
		return b
	})
	// The checksum covers only the payload, so a set reserved byte passes
	// it; Decode must still refuse a header Encode never writes.
	corrupt("reserved byte set", func(b []byte) []byte { b[40] = 1; return b })
}

// TestNextReadsARun pins Next, the reader of a run of records (the
// coordinator's lease log): each record reads back in order with the
// bytes after it; a run cut at any byte yields every complete record
// before the cut and then io.ErrUnexpectedEOF, whatever the cut-off
// bytes are; and a complete record that fails its check is ErrBadFormat.
func TestNextReadsARun(t *testing.T) {
	recs := []struct{ kind, fp, payload string }{
		{"timing", "fp-a", "first"},
		{"timing", "fp-a", ""},
		{"trace", "fp-b", "third record"},
	}
	var run []byte
	ends := make([]int, len(recs))
	for i, r := range recs {
		run = append(run, Encode(r.kind, r.fp, []byte(r.payload))...)
		ends[i] = len(run)
	}
	for cut := 0; cut <= len(run); cut++ {
		rest := run[:cut]
		for i, r := range recs {
			kind, fp, payload, next, err := Next(rest)
			if ends[i] > cut {
				if !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("cut at %d: record %d err = %v, want io.ErrUnexpectedEOF", cut, i, err)
				}
				break
			}
			if err != nil || kind != r.kind || fp != r.fp || string(payload) != r.payload {
				t.Fatalf("cut at %d: record %d = (%q, %q, %q, %v), want (%q, %q, %q)", cut, i, kind, fp, payload, err, r.kind, r.fp, r.payload)
			}
			rest = next
		}
	}
	flipped := bytes.Clone(run)
	flipped[ends[0]+headerLen] ^= 0x01 // the second record's kind
	if _, _, _, rest, err := Next(flipped); err != nil {
		t.Fatal(err)
	} else if _, _, _, _, err := Next(rest); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("flipped complete record: err = %v, want ErrBadFormat", err)
	}
}

// TestReadFileRejectsWrongFingerprint pins the address check: a valid
// record stored under the wrong path (a copied file, an address
// collision) reads as ErrBadFormat, never as another cell's result.
func TestReadFileRejectsWrongFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "swap.rslt")
	if err := WriteFile(path, "trace", "fp-original", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(path, "fp-other"); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("fingerprint mismatch: err = %v, want ErrBadFormat", err)
	}
}

// TestWriteFileAtomic pins the temp+rename discipline: a successful
// write leaves no temp files behind, and rewriting a path replaces the
// record in place.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := Path(dir, "fp-atomic")
	if err := WriteFile(path, "trace", "fp-atomic", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, "trace", "fp-atomic", []byte("second")); err != nil {
		t.Fatal(err)
	}
	if _, payload, err := ReadFile(path, "fp-atomic"); err != nil || string(payload) != "second" {
		t.Fatalf("rewrite: (%q, %v), want (second, nil)", payload, err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, ".rslt-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d files in result dir, want 1", len(entries))
	}
}
