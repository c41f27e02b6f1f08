package distrib

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"destset/internal/results"
)

// FuzzReadFrames decodes arbitrary bytes as a lease log: decodeWAL, and
// through it readFrames and the lease-table and event decode, must never
// panic, and a log it accepts must be its frames re-encoded by
// appendFrame after the magic, followed by at most a torn tail: the
// prefix of one more frame, which a crash mid-append leaves behind.
func FuzzReadFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		_, events, err := decodeWAL(raw)
		if err != nil {
			return
		}
		frames, err := readFrames(raw[len(walMagic):])
		if err != nil {
			t.Fatalf("decodeWAL accepted a log whose frames do not read: %v", err)
		}
		if len(frames) != 1+len(events) {
			t.Fatalf("%d frames decoded to a table and %d events", len(frames), len(events))
		}
		enc := append([]byte(nil), walMagic[:]...)
		for _, frame := range frames {
			enc = appendFrame(enc, frame)
		}
		if !bytes.HasPrefix(raw, enc) {
			t.Fatalf("frames re-encode to %x, not a prefix of the log %x", enc, raw)
		}
		if tail := raw[len(enc):]; len(tail) >= frameHeaderLen &&
			len(tail) >= frameHeaderLen+int(binary.LittleEndian.Uint32(tail)) {
			t.Fatalf("a complete frame was dropped as a torn tail: %x", tail)
		}
	})
}

// FuzzCopySpill reads arbitrary bytes as the spill file of cells [4, 6)
// of a timing plan "fp": copySpill must never panic or copy anything
// from a file it refuses, and a file it accepts must be that range's
// result record, of which exactly the payload was copied.
func FuzzCopySpill(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, file []byte) {
		const name = "spill.rslt"
		if err := os.WriteFile(filepath.Join(dir, name), file, 0o666); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := copySpill(&got, dir, name, "timing", "fp", 4, 6); err != nil {
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
