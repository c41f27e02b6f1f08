package distrib

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"destset/internal/results"
)

// TestCopySpillRejectsDamage is the spill's corruption matrix: copySpill
// copies a pristine spill's record bytes verbatim from the address its
// range determines, and refuses — as ErrStateCorrupt, and before it
// copies anything — a missing spill, a spill whose bytes changed after
// it was written, the spill of another range, kind or plan copied to
// this one's address, and a file that is no result record at all.
func TestCopySpillRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	perCell := [][][]byte{
		{[]byte(`{"Sim":"a","Seed":1}`), []byte(`{"Sim":"a","Seed":1,"I":2}`)},
		{[]byte(`{"Sim":"b","Seed":1}`)},
	}
	records := []byte("{\"Sim\":\"a\",\"Seed\":1}\n{\"Sim\":\"a\",\"Seed\":1,\"I\":2}\n{\"Sim\":\"b\",\"Seed\":1}\n")
	if err := writeSpill(dir, "timing", "fp", 4, 6, perCell); err != nil {
		t.Fatal(err)
	}
	path := results.Path(dir, spillFingerprint("fp", 4, 6))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := copySpill(&got, dir, "timing", "fp", 4, 6); err != nil {
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
	refused("missing", copySpill(&got, dir, "timing", "fp", 4, 7))
	refused("another-kind", copySpill(&got, dir, "trace", "fp", 4, 6))
	// The spill of [4,6) of plan fp, copied to the address of another
	// range or plan, is still that range's record.
	for _, fp := range []string{spillFingerprint("fp", 4, 7), spillFingerprint("fp2", 4, 6)} {
		if err := os.WriteFile(results.Path(dir, fp), raw, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	refused("another-range", copySpill(&got, dir, "timing", "fp", 4, 7))
	refused("another-plan", copySpill(&got, dir, "timing", "fp2", 4, 6))
	corrupt := func(what string, mutate func([]byte) []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutate(bytes.Clone(raw)), 0o666); err != nil {
			t.Fatal(err)
		}
		refused(what, copySpill(&got, dir, "timing", "fp", 4, 6))
	}
	corrupt("flipped-record-byte", func(b []byte) []byte { b[len(b)-3] ^= 0x01; return b })
	corrupt("torn-record", func(b []byte) []byte { return b[:len(b)-2] })
	corrupt("extra-record", func(b []byte) []byte { return append(b, "{}\n"...) })
	corrupt("header-only", func(b []byte) []byte { return b[:len(b)-len(records)] })
	corrupt("bare-records", func([]byte) []byte { return bytes.Clone(records) })
}
