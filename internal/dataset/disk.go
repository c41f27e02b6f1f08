package dataset

// On-disk columnar dataset format.
//
// A dataset file is the byte-exact serialization of a generated Dataset:
// the workload parameters, every trace column, the per-miss coherence
// annotation columns, and the whole-run block statistics. The layout is
// column-major and 8-byte aligned so a loaded file is usable zero-copy:
// ReadFile reads the file once and aliases the column slices straight
// into the file buffer — a cold process start costs one sequential read
// instead of a full regeneration through the coherence oracle.
//
//	header (64 bytes, little-endian):
//	  0  magic     8   "DSETCOLS"
//	  8  version   u32 (FileVersion)
//	 12  nodes     u32
//	 16  warm      u64
//	 24  measure   u64
//	 32  nstats    u64  block-statistic count
//	 40  paramsLen u64  workload-parameter JSON length
//	 48  checksum  u64  CRC-64/ECMA over the whole payload
//	 56  reserved  u64  (zero)
//	payload (everything after the header, 8-byte-aligned sections):
//	  params JSON, zero-padded to 8
//	  addr column    n×u64        pc column  n×u64
//	  sharers column n×u64        gap column n×u32, zero-padded to 8
//	  req, kind, owner, reqState columns n×u8 each, zero-padded to 8
//	  block stats  nstats × (addr u64, touched u64, misses u32)
//
// The format is versioned: any incompatible change bumps FileVersion and
// old files are rejected (and transparently regenerated by the tiered
// store). Truncated or bit-flipped files fail the length or checksum
// validation and are likewise rejected rather than half-loaded.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"unsafe"

	"destset/internal/atomicfile"
	"destset/internal/cache"
	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/trace"
	"destset/internal/workload"
)

// FileVersion is the current on-disk format version. Files written with
// any other version are rejected.
const FileVersion = 1

// fileMagic opens every dataset file.
var fileMagic = [8]byte{'D', 'S', 'E', 'T', 'C', 'O', 'L', 'S'}

// ErrBadFormat reports a file that is not a dataset file of the current
// version, or one that failed integrity validation (truncated, or the
// payload checksum does not match).
var ErrBadFormat = errors.New("dataset: bad magic, version or checksum")

const (
	headerLen = 64
	statLen   = 20 // addr u64 + touched u64 + misses u32
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// hostLittle reports whether the host is little-endian, in which case
// column bytes can be reinterpreted without conversion.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// bytesOf reinterprets a typed slice as its raw bytes (host byte order).
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// sliceOf reinterprets n elements of T starting at b[0]. The caller
// guarantees alignment and that b holds at least n elements.
func sliceOf[T any](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

func pad8(n int) int { return (n + 7) &^ 7 }

// layout is the byte offset of every payload section for a dataset of n
// records, a paramsLen-byte parameter blob and nstats block statistics.
type layout struct {
	params, addr, pc, sharers, gap        int
	req, kind, owner, state, stats, total int
}

func layoutFor(n, paramsLen, nstats int) layout {
	var l layout
	l.params = headerLen
	l.addr = pad8(l.params + paramsLen)
	l.pc = l.addr + 8*n
	l.sharers = l.pc + 8*n
	l.gap = l.sharers + 8*n
	l.req = pad8(l.gap + 4*n)
	l.kind = l.req + n
	l.owner = l.kind + n
	l.state = l.owner + n
	l.stats = pad8(l.state + n)
	l.total = l.stats + statLen*nstats
	return l
}

// chunkStats is how many block statistics the encoder packs into one
// write. Every section that needs encoding — the block statistics, and
// on big-endian hosts the 8- and 4-byte columns — goes out through one
// reused chunk of chunkStats*statLen bytes (80 KiB), so a dataset costs
// a few dozen writes however many blocks it touched, and a bare
// *os.File needs no buffering in front of it.
const chunkStats = 4096

// payload visits every payload byte-run in file order: the parameter
// blob, each column (as little-endian bytes), inter-section padding and
// the block statistics. Both the checksum pass and the write pass walk
// it, so the two can never disagree about the byte stream. Columns
// already in the file's byte order (native) are visited zero-copy;
// everything else is encoded into chunk and visited one filled chunk at
// a time.
func (d *Dataset) payload(paramsJSON, chunk []byte, native bool, visit func([]byte) error) error {
	var padBuf [8]byte
	pad := func(have int) error {
		if p := pad8(have) - have; p > 0 {
			return visit(padBuf[:p])
		}
		return nil
	}
	emit64 := func(s []uint64) error {
		if native {
			return visit(bytesOf(s))
		}
		return encodeChunked(chunk, s, 8, binary.LittleEndian.PutUint64, visit)
	}
	emit32 := func(s []uint32) error {
		if native {
			return visit(bytesOf(s))
		}
		return encodeChunked(chunk, s, 4, binary.LittleEndian.PutUint32, visit)
	}
	if err := visit(paramsJSON); err != nil {
		return err
	}
	if err := pad(headerLen + len(paramsJSON)); err != nil {
		return err
	}
	if err := emit64(sliceOf[uint64](bytesOf(d.c.Addr), d.n)); err != nil {
		return err
	}
	if err := emit64(sliceOf[uint64](bytesOf(d.c.PC), d.n)); err != nil {
		return err
	}
	if err := emit64(sliceOf[uint64](bytesOf(d.c.Sharers), d.n)); err != nil {
		return err
	}
	if err := emit32(d.c.Gap); err != nil {
		return err
	}
	if err := pad(4 * d.n); err != nil {
		return err
	}
	for _, col := range [][]byte{d.c.Req, bytesOf(d.c.Kind), bytesOf(d.c.Owner), bytesOf(d.c.ReqState)} {
		if err := visit(col); err != nil {
			return err
		}
	}
	if err := pad(4 * d.n); err != nil { // four 1-byte columns since last alignment point
		return err
	}
	return encodeChunked(chunk, d.BlockStats(), statLen, putStat, visit)
}

// encodeChunked encodes s, size bytes per element, into chunk as many
// elements at a time as fit and visits each filled chunk whole.
func encodeChunked[T any](chunk []byte, s []T, size int, put func([]byte, T), visit func([]byte) error) error {
	per := len(chunk) / size
	for len(s) > 0 {
		k := min(len(s), per)
		b := chunk[:k*size]
		for i, v := range s[:k] {
			put(b[i*size:], v)
		}
		if err := visit(b); err != nil {
			return err
		}
		s = s[k:]
	}
	return nil
}

// putStat encodes one block statistic as its statLen on-file bytes.
func putStat(b []byte, s coherence.BlockStat) {
	binary.LittleEndian.PutUint64(b[0:], uint64(s.Addr))
	binary.LittleEndian.PutUint64(b[8:], uint64(s.Touched))
	binary.LittleEndian.PutUint32(b[16:], s.Misses)
}

// WriteTo serializes the dataset in the on-disk columnar format. It
// implements io.WriterTo.
func (d *Dataset) WriteTo(w io.Writer) (int64, error) { return d.writeTo(w, hostLittle) }

// writeTo is WriteTo with the column byte order made explicit, so tests
// can drive the big-endian hosts' encoding path on any host.
func (d *Dataset) writeTo(w io.Writer, native bool) (int64, error) {
	paramsJSON, err := json.Marshal(d.params)
	if err != nil {
		return 0, fmt.Errorf("dataset: encoding params: %w", err)
	}
	l := layoutFor(d.n, len(paramsJSON), d.nstats)
	// No section is longer than the file, so this chunk always holds at
	// least one element of whatever payload encodes.
	chunk := make([]byte, min(chunkStats*statLen, l.total))

	// Pass 1: checksum the payload exactly as it will be written.
	sum := uint64(0)
	_ = d.payload(paramsJSON, chunk, native, func(b []byte) error {
		sum = crc64.Update(sum, crcTable, b)
		return nil
	})

	var hdr [headerLen]byte
	copy(hdr[0:], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], FileVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(d.params.Nodes))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(d.warm))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(d.n-d.warm))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(d.nstats))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(len(paramsJSON)))
	binary.LittleEndian.PutUint64(hdr[48:], sum)

	written := int64(0)
	if _, err := w.Write(hdr[:]); err != nil {
		return written, err
	}
	written += headerLen
	// Pass 2: write.
	err = d.payload(paramsJSON, chunk, native, func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		return err
	})
	if err != nil {
		return written, err
	}
	if written != int64(l.total) {
		return written, fmt.Errorf("dataset: wrote %d bytes, layout expects %d", written, l.total)
	}
	return written, nil
}

// WriteFile atomically writes the dataset to path in the on-disk
// columnar format (internal/atomicfile), so concurrent readers (other
// shard processes sharing a dataset directory) never observe a partial
// file.
func WriteFile(path string, d *Dataset) error {
	return atomicfile.Write(nil, path, func(f *os.File) error {
		_, err := d.WriteTo(f)
		return err
	})
}

// Sniff reports whether the byte prefix looks like a columnar dataset
// file (any version).
func Sniff(prefix []byte) bool {
	return len(prefix) >= len(fileMagic) && [8]byte(prefix[:8]) == fileMagic
}

// Decode validates and decodes a serialized dataset. On little-endian
// hosts the returned dataset's columns alias buf zero-copy (buf must not
// be mutated afterwards); on big-endian hosts the columns are converted
// into fresh slices. Truncated or corrupted input — including a record
// no replay could serve, such as a requester outside the node count —
// fails with ErrBadFormat.
func Decode(buf []byte) (*Dataset, error) { return decode(buf, true) }

// decode is Decode's core. verifyCRC gates the full-payload passes —
// the checksum and the per-record range checks; header, version, node
// count, layout and parameter validation always run — so the mmap path
// can skip the scans on files the store has already verified (the
// "check once, then trust" contract).
func decode(buf []byte, verifyCRC bool) (*Dataset, error) {
	if len(buf) < headerLen || !Sniff(buf) {
		return nil, fmt.Errorf("%w (not a dataset file)", ErrBadFormat)
	}
	if v := binary.LittleEndian.Uint32(buf[8:]); v != FileVersion {
		return nil, fmt.Errorf("%w (file version %d, want %d)", ErrBadFormat, v, FileVersion)
	}
	nodes := int(binary.LittleEndian.Uint32(buf[12:]))
	warm := binary.LittleEndian.Uint64(buf[16:])
	measure := binary.LittleEndian.Uint64(buf[24:])
	nstats := binary.LittleEndian.Uint64(buf[32:])
	paramsLen := binary.LittleEndian.Uint64(buf[40:])
	sum := binary.LittleEndian.Uint64(buf[48:])

	const sane = 1 << 40 // reject absurd counts before any multiplication
	if warm > sane || measure > sane || nstats > sane || paramsLen > sane {
		return nil, fmt.Errorf("%w (implausible header counts)", ErrBadFormat)
	}
	if nodes < 1 || nodes > nodeset.MaxNodes {
		return nil, fmt.Errorf("%w (%d nodes, want 1..%d)", ErrBadFormat, nodes, nodeset.MaxNodes)
	}
	n := int(warm + measure)
	l := layoutFor(n, int(paramsLen), int(nstats))
	if len(buf) != l.total {
		return nil, fmt.Errorf("%w (file is %d bytes, layout expects %d — truncated?)", ErrBadFormat, len(buf), l.total)
	}
	if verifyCRC {
		if got := crc64.Checksum(buf[headerLen:], crcTable); got != sum {
			return nil, fmt.Errorf("%w (payload checksum %#x, header says %#x — corrupted?)", ErrBadFormat, got, sum)
		}
		if err := checkRecords(buf, l, n, nodes); err != nil {
			return nil, err
		}
	}

	var p workload.Params
	if err := json.Unmarshal(buf[l.params:l.params+int(paramsLen)], &p); err != nil {
		return nil, fmt.Errorf("dataset: decoding params: %w", err)
	}
	if p.Nodes != nodes {
		return nil, fmt.Errorf("%w (header nodes %d, params say %d)", ErrBadFormat, nodes, p.Nodes)
	}

	d := &Dataset{params: p, warm: int(warm), n: n, nstats: int(nstats)}
	aliased := hostLittle && (len(buf) == 0 || uintptr(unsafe.Pointer(&buf[0]))%8 == 0)
	if aliased {
		d.c.Nodes = nodes
		d.c.Addr = sliceOf[trace.Addr](buf[l.addr:], n)
		d.c.PC = sliceOf[trace.PC](buf[l.pc:], n)
		d.c.Sharers = sliceOf[nodeset.Set](buf[l.sharers:], n)
		d.c.Gap = sliceOf[uint32](buf[l.gap:], n)
		d.c.Req = buf[l.req : l.req+n : l.req+n]
		d.c.Kind = sliceOf[trace.Kind](buf[l.kind:], n)
		d.c.Owner = sliceOf[nodeset.NodeID](buf[l.owner:], n)
		d.c.ReqState = sliceOf[cache.State](buf[l.state:], n)
	} else {
		d.c = coherence.NewColumns(nodes, n)
		for i := 0; i < n; i++ {
			d.c.Addr[i] = trace.Addr(binary.LittleEndian.Uint64(buf[l.addr+8*i:]))
			d.c.PC[i] = trace.PC(binary.LittleEndian.Uint64(buf[l.pc+8*i:]))
			d.c.Sharers[i] = nodeset.Set(binary.LittleEndian.Uint64(buf[l.sharers+8*i:]))
			d.c.Gap[i] = binary.LittleEndian.Uint32(buf[l.gap+4*i:])
			d.c.Req[i] = buf[l.req+i]
			d.c.Kind[i] = trace.Kind(buf[l.kind+i])
			d.c.Owner[i] = nodeset.NodeID(buf[l.owner+i])
			d.c.ReqState[i] = cache.State(buf[l.state+i])
		}
	}
	if nstats > 0 {
		raw := buf[l.stats : l.stats+statLen*int(nstats)]
		if aliased {
			// The columns pin buf anyway, so keep the table as the raw
			// file region and decode it only if BlockStats is ever
			// called — replay-only loads skip the copy entirely.
			d.statsRaw = raw
		} else {
			d.blockStats = decodeBlockStats(raw, int(nstats))
		}
	}
	return d, nil
}

// checkRecords rejects one-byte column values no replay can serve: a
// requester outside the node count, an owner outside it other than
// coherence.MemoryOwner, or a request kind or requester state outside
// its enumeration. A checksum only proves the bytes are the ones
// written, and a file can come from anywhere.
func checkRecords(buf []byte, l layout, n, nodes int) error {
	req, kind := buf[l.req:l.req+n], buf[l.kind:l.kind+n]
	owner, state := buf[l.owner:l.owner+n], buf[l.state:l.state+n]
	for i := range n {
		switch {
		case int(req[i]) >= nodes:
			return fmt.Errorf("%w (record %d: requester %d outside %d nodes)", ErrBadFormat, i, req[i], nodes)
		case int(owner[i]) >= nodes && nodeset.NodeID(owner[i]) != coherence.MemoryOwner:
			return fmt.Errorf("%w (record %d: owner %d outside %d nodes)", ErrBadFormat, i, owner[i], nodes)
		case trace.Kind(kind[i]) > trace.GetExclusive:
			return fmt.Errorf("%w (record %d: request kind %d)", ErrBadFormat, i, kind[i])
		case cache.State(state[i]) > cache.Modified:
			return fmt.Errorf("%w (record %d: requester state %d)", ErrBadFormat, i, state[i])
		}
	}
	return nil
}

// decodeBlockStats unpacks an on-file stats region (statLen-byte
// little-endian entries) into the in-memory table.
func decodeBlockStats(raw []byte, nstats int) []coherence.BlockStat {
	stats := make([]coherence.BlockStat, nstats)
	for i := range stats {
		off := statLen * i
		stats[i] = coherence.BlockStat{
			Addr:    trace.Addr(binary.LittleEndian.Uint64(raw[off:])),
			Touched: nodeset.Set(binary.LittleEndian.Uint64(raw[off+8:])),
			Misses:  binary.LittleEndian.Uint32(raw[off+16:]),
		}
	}
	return stats
}

// ReadFile loads a dataset file written by WriteFile (or WriteTo). The
// read is zero-copy on little-endian hosts: one sequential file read,
// with the column slices aliased into the file buffer.
func ReadFile(path string) (*Dataset, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return d, nil
}
