package distrib

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"

	"destset/internal/results"
)

// FuzzDecodeWAL decodes arbitrary bytes as a lease log: decodeWAL, and
// through it results.Next and the lease-table and event decode, must
// never panic, and a log it accepts must be complete result records of
// one kind and plan, the table's, each exactly as results.Encode writes
// it, followed by at most one torn record: the prefix of one more, which
// a crash mid-append leaves behind, so no complete record starts in it.
func FuzzDecodeWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		tbl, events, err := decodeWAL(raw)
		if err != nil {
			return
		}
		var enc []byte
		n := 0
		rest := raw
		for ; len(rest) > 0; n++ {
			kind, plan, payload, next, err := results.Next(rest)
			if errors.Is(err, io.ErrUnexpectedEOF) {
				break
			}
			if err != nil {
				t.Fatalf("decodeWAL accepted a log whose record %d fails its check: %v", n, err)
			}
			if kind != tbl.Kind || plan != tbl.Plan {
				t.Fatalf("record %d is a %s record of plan %q in the log of %s plan %q", n, kind, plan, tbl.Kind, tbl.Plan)
			}
			enc = append(enc, results.Encode(kind, plan, payload)...)
			rest = next
		}
		if n != 1+len(events) {
			t.Fatalf("%d complete records decoded to a table and %d events", n, len(events))
		}
		if !bytes.HasPrefix(raw, enc) {
			t.Fatalf("records re-encode to %x, not a prefix of the log %x", enc, raw)
		}
		for i := range rest {
			if _, _, _, _, err := results.Next(rest[i:]); err == nil {
				t.Fatalf("the torn tail after record %d holds a complete record at its byte %d", n, i)
			}
		}
	})
}

// FuzzCopySpill reads arbitrary bytes as the spill file of cells [4, 6)
// of a timing plan "fp", at that range's address: copySpill must never
// panic or copy anything from a file it refuses, and a file it accepts
// must be that range's result record, of which exactly the payload was
// copied.
func FuzzCopySpill(f *testing.F) {
	dir := f.TempDir()
	path := results.Path(dir, spillFingerprint("fp", 4, 6))
	f.Fuzz(func(t *testing.T, file []byte) {
		if err := os.WriteFile(path, file, 0o666); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := copySpill(&got, dir, "timing", "fp", 4, 6); err != nil {
			if got.Len() != 0 {
				t.Fatalf("a refused spill copied %q", got.Bytes())
			}
			return
		}
		kind, fp, payload, err := results.Decode(file)
		if err != nil {
			t.Fatalf("accepted a file that is no result record: %v", err)
		}
		if want := spillFingerprint("fp", 4, 6); kind != "timing" || fp != want {
			t.Fatalf("accepted the %s record %q, want the timing record %q", kind, fp, want)
		}
		if !bytes.Equal(got.Bytes(), payload) {
			t.Fatalf("copied %q, want the record's payload %q", got.Bytes(), payload)
		}
	})
}
