package distrib

// Upload spill files: every accepted completion is streamed to disk the
// moment it validates, so the coordinator's residency is O(open
// leases) regardless of sweep size, and a restarted coordinator
// re-adopts completed ranges by re-opening their spills.
//
// A spill is the manifest-headed JSONL discipline scaled down to one
// lease range: a single JSON header line naming the format, the plan
// fingerprint, the range [lo, hi) and a CRC-64/ECMA over the record
// bytes, followed by the range's observation records grouped per cell
// in plan order. Grouping per cell makes the file bytes deterministic —
// two workers racing to complete the same range spill identical files —
// and plan-ordered, which is exactly the input contract of
// destset.MergeStreams: the final output is a k-way merge over spill
// readers, never an in-memory join.
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
	crc := crc64.New(walCRCTable)
	records := 0
	for _, lines := range perCell {
		for _, line := range lines {
			crc.Write(line)
			crc.Write([]byte{'\n'})
			records++
		}
	}
	hdr, err := json.Marshal(spillHeader{
		Format: spillFormat, Version: spillVersion, Kind: kind, Plan: plan,
		Lo: lo, Hi: hi, Records: records, CRC64: fmt.Sprintf("%016x", crc.Sum64()),
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

// spillReadCloser hands out the records after the header.
type spillReadCloser struct {
	io.Reader
	f *os.File
}

func (s *spillReadCloser) Close() error { return s.f.Close() }

// openSpill opens a spill file and validates its header against the
// range the caller expects; the returned reader starts at the first
// record line.
func openSpill(dir, name, kind, plan string, lo, hi int) (*spillHeader, io.ReadCloser, error) {
	path := filepath.Join(dir, name)
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	br := bufio.NewReaderSize(f, 64*1024)
	line, err := br.ReadBytes('\n')
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%w: %s: reading spill header: %v", ErrStateCorrupt, path, err)
	}
	var hdr spillHeader
	if err := json.Unmarshal(bytes.TrimSuffix(line, []byte("\n")), &hdr); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%w: %s: decoding spill header: %v", ErrStateCorrupt, path, err)
	}
	if hdr.Format != spillFormat || hdr.Version != spillVersion ||
		hdr.Kind != kind || hdr.Plan != plan || hdr.Lo != lo || hdr.Hi != hi {
		f.Close()
		return nil, nil, fmt.Errorf("%w: %s: spill header names %s cells [%d,%d) of plan %q, want [%d,%d) of %q",
			ErrStateCorrupt, path, hdr.Kind, hdr.Lo, hdr.Hi, hdr.Plan, lo, hi, plan)
	}
	return &hdr, &spillReadCloser{Reader: br, f: f}, nil
}

// validateSpill fully scans a spill file — header, record count,
// checksum — the gate a resuming coordinator applies before re-adopting
// a completed range. A range whose spill fails validation is simply
// recomputed.
func validateSpill(dir, name, kind, plan string, lo, hi int) error {
	hdr, rc, err := openSpill(dir, name, kind, plan, lo, hi)
	if err != nil {
		return err
	}
	defer rc.Close()
	crc := crc64.New(walCRCTable)
	records := 0
	br := bufio.NewReaderSize(rc, 64*1024)
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			if line[len(line)-1] != '\n' {
				return fmt.Errorf("%w: %s: torn final record", ErrStateCorrupt, filepath.Join(dir, name))
			}
			crc.Write(line)
			records++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("%s: %w", filepath.Join(dir, name), err)
		}
	}
	if records != hdr.Records {
		return fmt.Errorf("%w: %s holds %d records, header says %d",
			ErrStateCorrupt, filepath.Join(dir, name), records, hdr.Records)
	}
	if sum := fmt.Sprintf("%016x", crc.Sum64()); sum != hdr.CRC64 {
		return fmt.Errorf("%w: %s records checksum %s, header says %s — corrupted?",
			ErrStateCorrupt, filepath.Join(dir, name), sum, hdr.CRC64)
	}
	return nil
}

// lazySpill is an io.Reader over one spill's records that opens the
// file on first Read and closes it at EOF — so a merge over thousands
// of spills holds only the handful of open descriptors the k-way fan-in
// is actually reading.
type lazySpill struct {
	dir, name, kind, plan string
	lo, hi                int

	opened bool
	rc     io.ReadCloser
	err    error
}

func (l *lazySpill) Read(p []byte) (int, error) {
	if l.err != nil {
		return 0, l.err
	}
	if !l.opened {
		l.opened = true
		_, rc, err := openSpill(l.dir, l.name, l.kind, l.plan, l.lo, l.hi)
		if err != nil {
			l.err = err
			return 0, err
		}
		l.rc = rc
	}
	n, err := l.rc.Read(p)
	if err != nil {
		l.rc.Close()
		l.rc = nil
		l.err = err
	}
	return n, err
}

// Close releases the descriptor if a merge error left it open.
func (l *lazySpill) Close() error {
	if l.rc != nil {
		err := l.rc.Close()
		l.rc, l.err = nil, io.EOF
		return err
	}
	return nil
}
