package distrib

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestCopySpillRejectsDamage is the spill's corruption matrix: copySpill
// copies a pristine spill's record bytes verbatim, and refuses — as
// ErrStateCorrupt — a spill whose records, header or framing changed
// after it was written, or whose header names another range.
func TestCopySpillRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	perCell := [][][]byte{
		{[]byte(`{"Sim":"a","Seed":1}`), []byte(`{"Sim":"a","Seed":1,"I":2}`)},
		{[]byte(`{"Sim":"b","Seed":1}`)},
	}
	name, err := writeSpill(dir, "timing", "fp", 4, 6, perCell)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	records := raw[bytes.IndexByte(raw, '\n')+1:]
	var got bytes.Buffer
	if err := copySpill(&got, dir, name, "timing", "fp", 4, 6); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), records) {
		t.Fatalf("copied %q, want the record bytes %q", got.Bytes(), records)
	}

	if err := copySpill(&got, dir, name, "timing", "fp", 4, 7); !errors.Is(err, ErrStateCorrupt) {
		t.Errorf("spill for another range: err = %v, want ErrStateCorrupt", err)
	}
	if err := copySpill(&got, dir, name, "trace", "fp", 4, 6); !errors.Is(err, ErrStateCorrupt) {
		t.Errorf("spill of another kind: err = %v, want ErrStateCorrupt", err)
	}
	corrupt := func(what string, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), mutate(bytes.Clone(raw)), 0o666); err != nil {
			t.Fatal(err)
		}
		if err := copySpill(&got, dir, name, "timing", "fp", 4, 6); !errors.Is(err, ErrStateCorrupt) {
			t.Errorf("%s: err = %v, want ErrStateCorrupt", what, err)
		}
	}
	corrupt("flipped-record-byte", func(b []byte) []byte { b[len(b)-3] ^= 0x01; return b })
	corrupt("record-count", func(b []byte) []byte { return bytes.Replace(b, []byte(`"records":3`), []byte(`"records":4`), 1) })
	corrupt("torn-record", func(b []byte) []byte { return b[:len(b)-2] })
	corrupt("extra-record", func(b []byte) []byte { return append(b, "{}\n"...) })
	corrupt("header-only", func(b []byte) []byte { return b[:bytes.IndexByte(b, '\n')] })
	corrupt("non-json-header", func(b []byte) []byte { return append([]byte("not json\n"), records...) })
}
