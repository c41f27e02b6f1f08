package distrib

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"
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
// of a timing plan "fp": copySpill must never panic, and when it
// accepts the file it must have copied exactly the bytes after the
// header line, whose Records and CRC64 match them.
func FuzzCopySpill(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, file []byte) {
		const name = "spill.jsonl"
		if err := os.WriteFile(filepath.Join(dir, name), file, 0o666); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := copySpill(&got, dir, name, "timing", "fp", 4, 6); err != nil {
			return
		}
		nl := bytes.IndexByte(file, '\n')
		if nl < 0 {
			t.Fatalf("accepted a spill with no header line: %q", file)
		}
		records := file[nl+1:]
		if !bytes.Equal(got.Bytes(), records) {
			t.Fatalf("copied %q, want the bytes after the header %q", got.Bytes(), records)
		}
		var hdr spillHeader
		if err := json.Unmarshal(file[:nl], &hdr); err != nil {
			t.Fatalf("accepted a header that does not decode: %v", err)
		}
		n := bytes.Count(records, []byte{'\n'})
		sum := fmt.Sprintf("%016x", crc64.Checksum(records, walCRCTable))
		if hdr.Records != n || hdr.CRC64 != sum {
			t.Fatalf("header says %d records, crc %s; the records are %d, crc %s", hdr.Records, hdr.CRC64, n, sum)
		}
	})
}
