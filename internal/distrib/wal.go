package distrib

// Coordinator durability: a write-ahead log of lease-table transitions
// plus periodic compacted checkpoints, under the coordinator's -state-dir.
//
// The discipline mirrors internal/results/disk.go scaled to append-only
// logs: everything on disk is CRC-64/ECMA-guarded and versioned via an
// 8-byte magic, checkpoints are written atomically (temp + rename), and
// corruption is rejected rather than half-read. The one deliberate
// asymmetry is the WAL's tail: a coordinator killed mid-append leaves a
// torn final frame, which is the *expected* crash artifact — replay
// keeps every complete frame and stops there. A complete frame whose
// checksum fails, by contrast, means the log was damaged after the
// fact (bit flip, concurrent writer) and recovery refuses it: a lease
// table rebuilt over silent corruption would re-lease completed work or
// adopt ranges that were never accepted.
//
// Layout under the state dir:
//
//	checkpoint          one framed JSON snapshot of the lease table
//	wal-<seq>.log       8-byte magic, then framed JSON events
//	spill/<addr>.jsonl  accepted per-range observation records (spill.go)
//
// Each frame is u32 payload length | u64 CRC-64/ECMA of the payload |
// payload (little-endian). The checkpoint names the first WAL sequence
// number that applies on top of it; recovery loads the checkpoint and
// replays every wal-<seq>.log with seq >= that, in order. Compaction
// opens wal-<seq+1>.log, writes the new checkpoint pointing at it, and
// only then deletes the older logs — a crash between any two steps
// leaves a state that replays to the same lease table.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"sort"

	"destset/internal/atomicfile"
)

// ErrStateCorrupt reports a coordinator state dir that failed integrity
// validation: bad magic or version, a bit-flipped frame, a checkpoint
// for a different plan, or WAL events that do not apply to the
// checkpointed lease table. A corrupt state dir is never silently
// rebuilt — resuming over it could re-lease completed ranges — so the
// operator must remove it (or point the coordinator elsewhere) to start
// the sweep over.
var ErrStateCorrupt = errors.New("distrib: corrupt coordinator state")

// walMagic and ckptMagic open every WAL and checkpoint file; the final
// byte is the format version, so an incompatible change is a different
// magic and old files are rejected whole.
var (
	walMagic  = [8]byte{'D', 'S', 'E', 'T', 'W', 'A', 'L', 1}
	ckptMagic = [8]byte{'D', 'S', 'E', 'T', 'C', 'K', 'P', 1}
)

const frameHeaderLen = 12 // u32 length + u64 crc

// maxFrameLen bounds one frame; WAL events and checkpoints are small
// JSON, so anything larger is corruption, not data.
const maxFrameLen = 1 << 28

var walCRCTable = crc64.MakeTable(crc64.ECMA)

// appendFrame appends one CRC-guarded frame to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[4:], crc64.Checksum(payload, walCRCTable))
	return append(append(buf, hdr[:]...), payload...)
}

// readFrames decodes consecutive frames from data. With tornTailOK, an
// incomplete final frame — the footprint of a crash mid-append — is
// dropped and every complete frame before it is returned; a *complete*
// frame with a checksum mismatch is corruption either way.
func readFrames(data []byte, tornTailOK bool) ([][]byte, error) {
	var frames [][]byte
	for len(data) > 0 {
		if len(data) < frameHeaderLen {
			if tornTailOK {
				return frames, nil
			}
			return nil, fmt.Errorf("%w (truncated frame header)", ErrStateCorrupt)
		}
		n := binary.LittleEndian.Uint32(data[0:])
		sum := binary.LittleEndian.Uint64(data[4:])
		if n > maxFrameLen {
			return nil, fmt.Errorf("%w (implausible frame length %d)", ErrStateCorrupt, n)
		}
		if len(data) < frameHeaderLen+int(n) {
			if tornTailOK {
				return frames, nil
			}
			return nil, fmt.Errorf("%w (frame is %d bytes, header expects %d — truncated?)",
				ErrStateCorrupt, len(data)-frameHeaderLen, n)
		}
		payload := data[frameHeaderLen : frameHeaderLen+int(n)]
		if got := crc64.Checksum(payload, walCRCTable); got != sum {
			return nil, fmt.Errorf("%w (frame checksum %#x, header says %#x — corrupted?)", ErrStateCorrupt, got, sum)
		}
		frames = append(frames, payload)
		data = data[frameHeaderLen+int(n):]
	}
	return frames, nil
}

// walEvent is one logged lease-table transition. Events carry absolute
// values (attempt counts, spill names), so replay is exact application,
// not re-derivation.
type walEvent struct {
	// E is the transition: "grant", "renew", "expire", "fail",
	// "complete", "sweepfail".
	E string `json:"e"`
	// Task is the task index the event applies to (all but sweepfail).
	Task int `json:"task"`
	// Lease and Worker name the grant in play.
	Lease  string `json:"lease,omitempty"`
	Worker string `json:"worker,omitempty"`
	// Attempts is the task's grant count after a grant event.
	Attempts int `json:"attempts,omitempty"`
	// Spill is the accepted range's spill file (complete events).
	Spill string `json:"spill,omitempty"`
	// Reason carries fail and sweepfail detail.
	Reason string `json:"reason,omitempty"`
}

// taskCheckpoint is one task's durable state inside a checkpoint.
type taskCheckpoint struct {
	Lo         int    `json:"lo"`
	Hi         int    `json:"hi"`
	State      string `json:"state"` // "pending", "leased", "done"
	Attempts   int    `json:"attempts,omitempty"`
	Cached     bool   `json:"cached,omitempty"`
	Lease      string `json:"lease,omitempty"`
	Worker     string `json:"worker,omitempty"`
	LastFailed string `json:"last_failed,omitempty"`
	Spill      string `json:"spill,omitempty"`
}

// checkpoint is the compacted lease table: everything recovery needs
// besides the WAL events appended after it.
type checkpoint struct {
	Version int    `json:"version"`
	Plan    string `json:"plan"`
	Kind    string `json:"kind"`
	// Epoch counts coordinator incarnations over this state dir; lease
	// ids are namespaced by it so a restart can never re-issue an id.
	Epoch int `json:"epoch"`
	// WalSeq is the first WAL sequence number that applies on top of
	// this checkpoint.
	WalSeq  int              `json:"wal_seq"`
	Tasks   []taskCheckpoint `json:"tasks"`
	Pending []int            `json:"pending"`
	Failed  string           `json:"failed,omitempty"`
}

// walState owns the on-disk coordinator state: the spill directory
// (always) and, when durable, the open WAL plus checkpoint bookkeeping.
type walState struct {
	dir       string // state dir; "" when ephemeral
	spillDir  string
	ephemeral bool // no WAL/checkpoint, temp spill dir removed by Close

	f      *os.File // open WAL (durable only)
	seq    int      // its sequence number
	epoch  int      // this incarnation's epoch
	events int      // events appended since the last checkpoint
	every  int      // checkpoint after this many events

	broken error // first durability failure; disables further writes
}

// newEphemeralState spills to a private temp dir and logs nothing: the
// bounded-memory guarantees without crash recovery, for coordinators
// run without a state dir.
func newEphemeralState() (*walState, error) {
	dir, err := os.MkdirTemp("", "destset-spill-*")
	if err != nil {
		return nil, fmt.Errorf("distrib: creating spill dir: %w", err)
	}
	return &walState{spillDir: dir, ephemeral: true, epoch: 1}, nil
}

// openWALState prepares a durable state dir and loads whatever a prior
// incarnation left: the checkpoint (nil on a fresh dir) and the WAL
// events appended after it, oldest first. It does not write anything —
// the coordinator applies the events, then calls commit with the
// reconciled snapshot.
func openWALState(dir string, every int) (st *walState, cp *checkpoint, events []walEvent, err error) {
	spill := filepath.Join(dir, "spill")
	if err := os.MkdirAll(spill, 0o777); err != nil {
		return nil, nil, nil, fmt.Errorf("distrib: creating state dir: %w", err)
	}
	st = &walState{dir: dir, spillDir: spill, every: every}

	cp, err = readCheckpoint(filepath.Join(dir, "checkpoint"))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, nil, err
	}
	seqs, err := walSeqs(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if cp == nil {
		if len(seqs) > 0 {
			// A WAL with no checkpoint to anchor it: the events reference
			// task indices only a checkpoint defines.
			return nil, nil, nil, fmt.Errorf("%w: %s has WAL files but no checkpoint", ErrStateCorrupt, dir)
		}
		st.epoch, st.seq = 1, 0
		return st, nil, nil, nil
	}
	st.epoch = cp.Epoch + 1
	st.seq = cp.WalSeq - 1
	for _, seq := range seqs {
		if seq < cp.WalSeq {
			continue // compacted away by the checkpoint; deletion raced a crash
		}
		evs, err := readWAL(filepath.Join(dir, walName(seq)))
		if err != nil {
			return nil, nil, nil, err
		}
		events = append(events, evs...)
		if seq > st.seq {
			st.seq = seq
		}
	}
	return st, cp, events, nil
}

// walName is wal-<seq>.log.
func walName(seq int) string { return fmt.Sprintf("wal-%06d.log", seq) }

// walSeqs lists the state dir's WAL sequence numbers, ascending.
func walSeqs(dir string) ([]int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, name := range names {
		var seq int
		if _, err := fmt.Sscanf(filepath.Base(name), "wal-%d.log", &seq); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// readWAL loads one WAL file's events. A torn final frame is dropped
// (crash mid-append); anything else that fails validation is
// ErrStateCorrupt.
func readWAL(path string) ([]walEvent, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(walMagic) || [8]byte(raw[:8]) != walMagic {
		return nil, fmt.Errorf("%w: %s is not a WAL file of this version", ErrStateCorrupt, path)
	}
	frames, err := readFrames(raw[len(walMagic):], true)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	events := make([]walEvent, 0, len(frames))
	for i, frame := range frames {
		var ev walEvent
		if err := json.Unmarshal(frame, &ev); err != nil {
			return nil, fmt.Errorf("%s: event %d: %w (%v)", path, i, ErrStateCorrupt, err)
		}
		events = append(events, ev)
	}
	return events, nil
}

// readCheckpoint loads and validates a checkpoint file. os.ErrNotExist
// passes through so callers can distinguish "fresh dir" from damage.
func readCheckpoint(path string) (*checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(ckptMagic) || [8]byte(raw[:8]) != ckptMagic {
		return nil, fmt.Errorf("%w: %s is not a checkpoint of this version", ErrStateCorrupt, path)
	}
	// Atomic rename means a checkpoint is never legitimately torn:
	// strict framing.
	frames, err := readFrames(raw[len(ckptMagic):], false)
	if err != nil || len(frames) != 1 {
		return nil, fmt.Errorf("%s: %w (want exactly one frame)", path, ErrStateCorrupt)
	}
	var cp checkpoint
	if err := json.Unmarshal(frames[0], &cp); err != nil {
		return nil, fmt.Errorf("%s: %w (%v)", path, ErrStateCorrupt, err)
	}
	if cp.Version != 1 {
		return nil, fmt.Errorf("%s: %w (checkpoint version %d)", path, ErrStateCorrupt, cp.Version)
	}
	return &cp, nil
}

// append logs one event to the open WAL. Ephemeral state drops it. The
// caller decides when to checkpoint (see due).
func (st *walState) append(ev walEvent) error {
	if st.ephemeral || st.broken != nil {
		return st.broken
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return st.disable(err)
	}
	if _, err := st.f.Write(appendFrame(nil, payload)); err != nil {
		return st.disable(err)
	}
	st.events++
	return nil
}

// due reports whether enough events accumulated to warrant compaction.
func (st *walState) due() bool {
	return !st.ephemeral && st.broken == nil && st.events >= st.every
}

// commit makes cp the durable truth: a fresh WAL file is opened at
// seq+1, the checkpoint is atomically written pointing at it, and only
// then are the older WALs deleted. Any prefix of those steps recovers
// to the same lease table.
func (st *walState) commit(cp *checkpoint) error {
	if st.ephemeral || st.broken != nil {
		return st.broken
	}
	cp.Version = 1
	cp.Epoch = st.epoch
	cp.WalSeq = st.seq + 1

	f, err := os.OpenFile(filepath.Join(st.dir, walName(cp.WalSeq)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return st.disable(err)
	}
	if _, err := f.Write(walMagic[:]); err != nil {
		f.Close()
		return st.disable(err)
	}

	payload, err := json.Marshal(cp)
	if err != nil {
		f.Close()
		return st.disable(err)
	}
	err = atomicfile.Write(nil, filepath.Join(st.dir, "checkpoint"), func(tmp *os.File) error {
		_, err := tmp.Write(appendFrame(append([]byte(nil), ckptMagic[:]...), payload))
		return err
	})
	if err != nil {
		f.Close()
		return st.disable(err)
	}

	// The checkpoint is durable; retire the superseded WALs.
	if old := st.f; old != nil {
		old.Close()
	}
	seqs, _ := walSeqs(st.dir)
	for _, seq := range seqs {
		if seq < cp.WalSeq {
			os.Remove(filepath.Join(st.dir, walName(seq)))
		}
	}
	st.f = f
	st.seq = cp.WalSeq
	st.events = 0
	return nil
}

// disable records the first durability failure and stops further
// writes: the in-memory sweep stays correct, but crash recovery from
// this point is no longer promised.
func (st *walState) disable(err error) error {
	if st.broken == nil {
		st.broken = fmt.Errorf("distrib: coordinator state writes disabled: %w", err)
	}
	return st.broken
}

// close releases the WAL handle and, for ephemeral state, removes the
// private spill dir.
func (st *walState) close() error {
	if st.f != nil {
		st.f.Close()
		st.f = nil
	}
	if st.ephemeral && st.spillDir != "" {
		return os.RemoveAll(st.spillDir)
	}
	return nil
}
