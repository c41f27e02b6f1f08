package results

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds Decode arbitrary bytes, as a result directory shared
// with other processes can. Decode must never panic, and a record it
// accepts must be exactly what Encode writes for it, so a record read
// back and stored again keeps its bytes. Seeds live in
// testdata/fuzz/FuzzDecode: a valid record and one with a reserved
// header byte set.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		kind, fp, payload, err := Decode(buf)
		if err != nil {
			return
		}
		if got := Encode(kind, fp, payload); !bytes.Equal(got, buf) {
			t.Fatalf("accepted record (kind %q, fp %q, %d payload bytes) re-encodes to other bytes", kind, fp, len(payload))
		}
	})
}
