package results

// On-disk result-record format.
//
// A result file is the byte-exact serialization of one stored record: a
// kind tag, the owning cell's fingerprint and an opaque payload (the
// facade stores JSON-encoded cell results there, but the format does
// not care). The discipline mirrors internal/dataset/disk.go — a
// versioned little-endian header, a CRC-64/ECMA checksum over the whole
// payload, atomic writes through internal/atomicfile — scaled down to
// records of a few kilobytes that are read whole rather than aliased.
//
//	header (48 bytes, little-endian):
//	  0  magic      8   "DSETRSLT"
//	  8  version    u32 (FileVersion)
//	 12  kindLen    u32
//	 16  fpLen      u32
//	 20  payloadLen u32
//	 24  checksum   u64 CRC-64/ECMA over the payload section
//	 32  reserved   u64 (zero)
//	 40  reserved   u64 (zero)
//	payload (everything after the header, unpadded):
//	  kind bytes, fingerprint bytes, payload bytes
//
// The format is versioned: any incompatible change bumps FileVersion
// and old files are rejected (and transparently recomputed by the
// tiered store, which rewrites them — healing stale versions exactly
// like corruption). Truncated or bit-flipped files fail the length or
// checksum validation and are likewise rejected rather than half-read.
//
// Records also concatenate: a coordinator's spill is one record and its
// lease log a run of them (internal/distrib), which Next reads one at a
// time. Every small file the repository writes is framed this way; only
// the zero-copy dataset file keeps its own layout.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"destset/internal/atomicfile"
)

// FileVersion is the current on-disk format version. Files written with
// any other version are rejected.
const FileVersion = 1

// fileMagic opens every result file.
var fileMagic = [8]byte{'D', 'S', 'E', 'T', 'R', 'S', 'L', 'T'}

// ErrBadFormat reports a file that is not a result file of the current
// version, or one that failed integrity validation (truncated, or the
// payload checksum does not match).
var ErrBadFormat = errors.New("results: bad magic, version or checksum")

const headerLen = 48

var crcTable = crc64.MakeTable(crc64.ECMA)

// sane bounds each header length field; a record is a cell's result,
// not a dataset, so anything near this limit is corruption.
const sane = 1 << 30

// Encode serializes one record.
func Encode(kind, fp string, payload []byte) []byte {
	buf := make([]byte, headerLen+len(kind)+len(fp)+len(payload))
	copy(buf[0:], fileMagic[:])
	binary.LittleEndian.PutUint32(buf[8:], FileVersion)
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(kind)))
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(fp)))
	binary.LittleEndian.PutUint32(buf[20:], uint32(len(payload)))
	n := headerLen
	n += copy(buf[n:], kind)
	n += copy(buf[n:], fp)
	copy(buf[n:], payload)
	binary.LittleEndian.PutUint64(buf[24:], crc64.Checksum(buf[headerLen:], crcTable))
	return buf
}

// Sniff reports whether the byte prefix looks like a result file (any
// version).
func Sniff(prefix []byte) bool {
	return len(prefix) >= len(fileMagic) && [8]byte(prefix[:8]) == fileMagic
}

// Next reads the record at the front of buf and returns it with the
// bytes after it, so a run of records — the coordinator's lease log —
// reads one at a time. A buf that ends inside the record, header
// included, is io.ErrUnexpectedEOF whatever its bytes are: that is what
// a write cut short leaves. A complete record that fails validation is
// ErrBadFormat. The returned payload and rest alias buf.
func Next(buf []byte) (kind, fp string, payload, rest []byte, err error) {
	if len(buf) < headerLen {
		return "", "", nil, nil, io.ErrUnexpectedEOF
	}
	if !Sniff(buf) {
		return "", "", nil, nil, fmt.Errorf("%w (not a result record)", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != FileVersion {
		return "", "", nil, nil, fmt.Errorf("%w (record version %d, want %d)", ErrBadFormat, v, FileVersion)
	}
	kindLen := binary.LittleEndian.Uint32(buf[12:])
	fpLen := binary.LittleEndian.Uint32(buf[16:])
	payloadLen := binary.LittleEndian.Uint32(buf[20:])
	sum := binary.LittleEndian.Uint64(buf[24:])
	if kindLen > sane || fpLen > sane || payloadLen > sane {
		return "", "", nil, nil, fmt.Errorf("%w (implausible header lengths)", ErrBadFormat)
	}
	// Encode writes zeros there; anything else is not a record it wrote.
	if binary.LittleEndian.Uint64(buf[32:]) != 0 || binary.LittleEndian.Uint64(buf[40:]) != 0 {
		return "", "", nil, nil, fmt.Errorf("%w (reserved header bytes set)", ErrBadFormat)
	}
	total := uint64(headerLen) + uint64(kindLen) + uint64(fpLen) + uint64(payloadLen)
	if uint64(len(buf)) < total {
		return "", "", nil, nil, io.ErrUnexpectedEOF
	}
	body := buf[headerLen:total]
	if got := crc64.Checksum(body, crcTable); got != sum {
		return "", "", nil, nil, fmt.Errorf("%w (payload checksum %#x, header says %#x — corrupted?)", ErrBadFormat, got, sum)
	}
	kind = string(body[:kindLen])
	fp = string(body[kindLen : kindLen+fpLen])
	return kind, fp, body[kindLen+fpLen:], buf[total:], nil
}

// Decode validates and decodes a serialized record: Next, with no bytes
// after the record. The returned payload aliases buf, and Encode of
// what it returns gives buf back. Truncated or corrupted input fails
// with ErrBadFormat.
func Decode(buf []byte) (kind, fp string, payload []byte, err error) {
	kind, fp, payload, rest, err := Next(buf)
	switch {
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "", "", nil, fmt.Errorf("%w (file is %d bytes, shorter than its record — truncated?)", ErrBadFormat, len(buf))
	case err != nil:
		return "", "", nil, err
	case len(rest) != 0:
		return "", "", nil, fmt.Errorf("%w (%d bytes after the record)", ErrBadFormat, len(rest))
	}
	return kind, fp, payload, nil
}

// Path returns the content-addressed file a fingerprint lives at under
// dir: the fingerprint plus the format version, hashed. Versioning the
// address means a format bump never misreads old files — they are
// simply unreachable and recompute.
func Path(dir, fp string) string { return filepath.Join(dir, name(fp)) }

// name is the content-addressed file name of a fingerprint.
func name(fp string) string {
	h := sha256.New()
	var num [8]byte
	binary.LittleEndian.PutUint64(num[:], FileVersion)
	h.Write(num[:])
	h.Write([]byte(fp))
	return hex.EncodeToString(h.Sum(nil)[:16]) + ".rslt"
}

// WriteFile atomically writes one record to path (internal/atomicfile),
// so concurrent readers (other processes sharing a result directory)
// never observe a partial file. Rewriting an existing path heals a
// corrupted or stale-version file in place.
func WriteFile(path, kind, fp string, payload []byte) error {
	return atomicfile.Write(nil, path, func(f *os.File) error {
		_, err := f.Write(Encode(kind, fp, payload))
		return err
	})
}

// ReadFile loads a record file written by WriteFile and verifies it
// carries the requested fingerprint — an address collision (or a file
// someone copied over another) reads as ErrBadFormat, not as a wrong
// cell's result.
func ReadFile(path, fp string) (kind string, payload []byte, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	kind, gotFP, payload, err := Decode(buf)
	if err != nil {
		return "", nil, fmt.Errorf("results: %s: %w", path, err)
	}
	if gotFP != fp {
		return "", nil, fmt.Errorf("results: %s: %w (record is for fingerprint %s, want %s)", path, ErrBadFormat, gotFP, fp)
	}
	return kind, payload, nil
}
