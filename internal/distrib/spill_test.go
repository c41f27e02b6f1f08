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
// ErrStateCorrupt, and before it copies anything — a spill whose bytes
// changed after it was written, the spill of another range, kind or
// plan, and a file that is no result record at all.
func TestCopySpillRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	perCell := [][][]byte{
		{[]byte(`{"Sim":"a","Seed":1}`), []byte(`{"Sim":"a","Seed":1,"I":2}`)},
		{[]byte(`{"Sim":"b","Seed":1}`)},
	}
	records := []byte("{\"Sim\":\"a\",\"Seed\":1}\n{\"Sim\":\"a\",\"Seed\":1,\"I\":2}\n{\"Sim\":\"b\",\"Seed\":1}\n")
	name, err := writeSpill(dir, "timing", "fp", 4, 6, perCell)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := copySpill(&got, dir, name, "timing", "fp", 4, 6); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), records) {
		t.Fatalf("copied %q, want the record bytes %q", got.Bytes(), records)
	}

	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrStateCorrupt) {
			t.Errorf("%s: err = %v, want ErrStateCorrupt", what, err)
		}
		if got.Len() != 0 {
			t.Errorf("%s: a refused spill copied %q", what, got.Bytes())
		}
	}
	got.Reset()
	refused("another-range", copySpill(&got, dir, name, "timing", "fp", 4, 7))
	refused("another-kind", copySpill(&got, dir, name, "trace", "fp", 4, 6))
	refused("another-plan", copySpill(&got, dir, name, "timing", "fp2", 4, 6))
	corrupt := func(what string, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), mutate(bytes.Clone(raw)), 0o666); err != nil {
			t.Fatal(err)
		}
		refused(what, copySpill(&got, dir, name, "timing", "fp", 4, 6))
	}
	corrupt("flipped-record-byte", func(b []byte) []byte { b[len(b)-3] ^= 0x01; return b })
	corrupt("torn-record", func(b []byte) []byte { return b[:len(b)-2] })
	corrupt("extra-record", func(b []byte) []byte { return append(b, "{}\n"...) })
	corrupt("header-only", func(b []byte) []byte { return b[:len(b)-len(records)] })
	corrupt("bare-records", func([]byte) []byte { return bytes.Clone(records) })
}
