package distrib

// Upload spill files: every accepted completion is streamed to disk the
// moment it validates, so the coordinator's residency is O(open
// leases) regardless of sweep size, and a restarted coordinator
// re-adopts completed ranges by re-opening their spills.
//
// A spill is the manifest-headed JSONL discipline scaled down to one
// lease range: a single JSON header line naming the format, the plan
// fingerprint, the range [lo, hi) and a CRC-64/ECMA over the record
// bytes, followed by the range's observation records in plan order (the
// coordinator refuses uploads out of plan order). That makes the file
// bytes deterministic — two workers racing to complete the same range
// spill identical files — and, since tasks partition the plan in order,
// the final output is the merged manifest followed by the spills' record
// bytes concatenated in task order, never an in-memory join.
//
// Names are content addresses: sha256 over (version, plan fingerprint,
// range), so re-completions and resumed coordinators converge on the
// same file, written atomically through internal/atomicfile.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"destset/internal/atomicfile"
)

// spillFormat names the header line's format field.
const spillFormat = "destset/spill"

// spillVersion is bumped on any incompatible layout change; it
// participates in the content address, so old files are simply never
// found.
const spillVersion = 1

// spillHeader is the first line of every spill file.
type spillHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Plan    string `json:"plan"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	// Records counts record lines; CRC64 is the CRC-64/ECMA of the
	// record bytes (each line including its trailing newline).
	Records int    `json:"records"`
	CRC64   string `json:"crc64"`
}

// spillName is the content address of a range's spill file.
func spillName(plan string, lo, hi int) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "destset-spill|%d|%s|%d|%d", spillVersion, plan, lo, hi))
	return fmt.Sprintf("%x.jsonl", sum[:8])
}

// writeSpill persists one completed range: perCell[i] holds cell
// lo+i's record lines in upload order. The file appears atomically
// under its content-addressed name, which is returned.
func writeSpill(dir, kind, plan string, lo, hi int, perCell [][][]byte) (string, error) {
	var check spillCheck
	for _, lines := range perCell {
		for _, line := range lines {
			check.Write(line)
			check.Write([]byte{'\n'})
		}
	}
	hdr, err := json.Marshal(spillHeader{
		Format: spillFormat, Version: spillVersion, Kind: kind, Plan: plan,
		Lo: lo, Hi: hi, Records: check.records, CRC64: fmt.Sprintf("%016x", check.crc),
	})
	if err != nil {
		return "", fmt.Errorf("distrib: encoding spill header: %w", err)
	}

	name := spillName(plan, lo, hi)
	err = atomicfile.Write(nil, filepath.Join(dir, name), func(f *os.File) error {
		bw := bufio.NewWriterSize(f, 64*1024)
		bw.Write(hdr)
		bw.WriteByte('\n')
		for _, lines := range perCell {
			for _, line := range lines {
				bw.Write(line)
				bw.WriteByte('\n')
			}
		}
		return bw.Flush()
	})
	if err != nil {
		return "", fmt.Errorf("distrib: spilling cells [%d,%d): %w", lo, hi, err)
	}
	return name, nil
}

// spillCheck counts the record lines and checksums the record bytes
// written through it: the header's Records and CRC64 when a spill is
// written, the values they must match when it is read back.
type spillCheck struct {
	crc     uint64
	records int
}

func (c *spillCheck) Write(p []byte) (int, error) {
	c.records += bytes.Count(p, []byte{'\n'})
	c.crc = crc64.Update(c.crc, walCRCTable, p)
	return len(p), nil
}

// copySpill copies a spill file's records to w and checks the file as it
// goes: the header must name cells [lo, hi) of this plan and kind, and
// the records must match the header's count and checksum. Anything else
// is ErrStateCorrupt — after the bytes were copied, so a caller writing
// the merged output must discard it on error. Resume calls it with
// io.Discard to revalidate a completed range before re-adopting it.
func copySpill(w io.Writer, dir, name, kind, plan string, lo, hi int) error {
	path := filepath.Join(dir, name)
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// Hiding the file's WriteTo makes the copy below reuse this reader's
	// buffer instead of allocating a 32 KB one per spill.
	br := bufio.NewReader(struct{ io.Reader }{f})
	line, err := br.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("%w: %s: reading spill header: %v", ErrStateCorrupt, path, err)
	}
	var hdr spillHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return fmt.Errorf("%w: %s: decoding spill header: %v", ErrStateCorrupt, path, err)
	}
	if hdr.Format != spillFormat || hdr.Version != spillVersion ||
		hdr.Kind != kind || hdr.Plan != plan || hdr.Lo != lo || hdr.Hi != hi {
		return fmt.Errorf("%w: %s: spill header names %s cells [%d,%d) of plan %q, want [%d,%d) of %q",
			ErrStateCorrupt, path, hdr.Kind, hdr.Lo, hdr.Hi, hdr.Plan, lo, hi, plan)
	}
	var check spillCheck
	if _, err := br.WriteTo(io.MultiWriter(w, &check)); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if check.records != hdr.Records {
		return fmt.Errorf("%w: %s holds %d records, header says %d", ErrStateCorrupt, path, check.records, hdr.Records)
	}
	if sum := fmt.Sprintf("%016x", check.crc); sum != hdr.CRC64 {
		return fmt.Errorf("%w: %s records checksum %s, header says %s — corrupted?", ErrStateCorrupt, path, sum, hdr.CRC64)
	}
	return nil
}
