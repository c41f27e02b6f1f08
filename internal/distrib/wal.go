package distrib

// Coordinator durability: one write-ahead log of the lease table under
// the coordinator's -state-dir.
//
// The discipline mirrors internal/results/disk.go scaled to an
// append-only log: every frame is CRC-64/ECMA-guarded, the file opens
// with a versioned 8-byte magic, and corruption is rejected rather than
// half-read. The one deliberate asymmetry is the log's tail: a
// coordinator killed mid-append leaves a torn final frame, which is the
// *expected* crash artifact — replay keeps every complete frame and
// stops there. A complete frame whose checksum fails, by contrast, means
// the log was damaged after the fact (bit flip, concurrent writer) and
// recovery refuses it: a lease table rebuilt over silent corruption
// would re-lease completed work or adopt ranges that were never
// accepted.
//
// Layout under the state dir:
//
//	wal.log             8-byte magic, the lease table, then one frame per event
//	spill/<addr>.jsonl  accepted per-range observation records (spill.go)
//
// Each frame is u32 payload length | u64 CRC-64/ECMA of the payload |
// payload (little-endian). The first frame, the log's checkpoint, is
// the lease table as this incarnation started: at every birth, after
// replay and reconciliation, the coordinator writes a new wal.log
// holding just that table, atomically, so a crash at any point leaves
// either the old log or the new one. Every later frame is one grant, expiry, failure, completion
// or sweep failure. Heartbeats log nothing, so a range logs at most
// 2×MaxAttempts+1 events and the log never needs compacting while a
// sweep runs.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"

	"destset/internal/atomicfile"
)

// ErrStateCorrupt reports a coordinator state dir that failed integrity
// validation: bad magic or version, a bit-flipped frame, a lease table
// for a different plan, or events that do not apply to the table. A
// corrupt state dir is never silently rebuilt — resuming over it could
// re-lease completed ranges — so the operator must remove it (or point
// the coordinator elsewhere) to start the sweep over.
var ErrStateCorrupt = errors.New("distrib: corrupt coordinator state")

// walMagic opens every log; the final byte is the format version, so an
// incompatible change is a different magic and old logs are rejected
// whole.
var walMagic = [8]byte{'D', 'S', 'E', 'T', 'W', 'A', 'L', 2}

// walFile is the log's name under the state dir.
const walFile = "wal.log"

const frameHeaderLen = 12 // u32 length + u64 crc

// maxFrameLen bounds one frame; events and lease tables are small JSON,
// so anything larger is corruption, not data.
const maxFrameLen = 1 << 28

var walCRCTable = crc64.MakeTable(crc64.ECMA)

// appendFrame appends one CRC-guarded frame to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[4:], crc64.Checksum(payload, walCRCTable))
	return append(append(buf, hdr[:]...), payload...)
}

// readFrames decodes consecutive frames from data. An incomplete final
// frame — the footprint of a crash mid-append — is dropped and every
// complete frame before it is returned; a *complete* frame with a
// checksum mismatch is corruption.
func readFrames(data []byte) ([][]byte, error) {
	var frames [][]byte
	for len(data) >= frameHeaderLen {
		n := binary.LittleEndian.Uint32(data[0:])
		sum := binary.LittleEndian.Uint64(data[4:])
		if n > maxFrameLen {
			return nil, fmt.Errorf("%w (implausible frame length %d)", ErrStateCorrupt, n)
		}
		if len(data) < frameHeaderLen+int(n) {
			break
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
	// E is the transition: "grant", "expire", "fail", "complete",
	// "sweepfail".
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

// tableTask is one task's durable state inside a lease table.
type tableTask struct {
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

// leaseTable is the log's first frame, its checkpoint: everything
// recovery needs besides the events appended after it.
type leaseTable struct {
	Plan string `json:"plan"`
	Kind string `json:"kind"`
	// Epoch counts coordinator incarnations over this state dir; lease
	// ids are namespaced by it so a restart can never re-issue an id.
	Epoch   int         `json:"epoch"`
	Tasks   []tableTask `json:"tasks"`
	Pending []int       `json:"pending"`
	Failed  string      `json:"failed,omitempty"`
}

// walState owns the on-disk coordinator state: the spill directory
// (always) and, when durable, the open log.
type walState struct {
	dir      string // state dir; "" when ephemeral
	spillDir string
	f        *os.File // open log (durable only)
	epoch    int      // this incarnation's epoch

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
	return &walState{spillDir: dir, epoch: 1}, nil
}

// openWALState prepares a durable state dir and loads whatever a prior
// incarnation logged: its lease table (nil on a fresh dir) and the
// events appended after it, oldest first. It writes no log — the
// coordinator applies the events, then calls begin with the reconciled
// table.
func openWALState(dir string) (st *walState, tbl *leaseTable, events []walEvent, err error) {
	spill := filepath.Join(dir, "spill")
	if err := os.MkdirAll(spill, 0o777); err != nil {
		return nil, nil, nil, fmt.Errorf("distrib: creating state dir: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoint")); err == nil {
		return nil, nil, nil, fmt.Errorf("%w: %s holds a checkpoint file, the state layout of an older version; remove the dir to start the sweep over",
			ErrStateCorrupt, dir)
	}
	st = &walState{dir: dir, spillDir: spill, epoch: 1}
	tbl, events, err = readWAL(filepath.Join(dir, walFile))
	if errors.Is(err, os.ErrNotExist) {
		return st, nil, nil, nil
	}
	if err != nil {
		return nil, nil, nil, err
	}
	st.epoch = tbl.Epoch + 1
	return st, tbl, events, nil
}

// readWAL loads a log's lease table and events (decodeWAL). os.ErrNotExist
// passes through so callers can tell a fresh dir from damage.
func readWAL(path string) (*leaseTable, []walEvent, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	tbl, events, err := decodeWAL(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return tbl, events, nil
}

// decodeWAL decodes a log's bytes into its lease table and events. A
// torn final event is dropped (crash mid-append); anything else that
// fails validation — a missing or torn table included, since the table
// is written atomically — is ErrStateCorrupt.
func decodeWAL(raw []byte) (*leaseTable, []walEvent, error) {
	if len(raw) < len(walMagic) || [8]byte(raw[:8]) != walMagic {
		return nil, nil, fmt.Errorf("%w: not a lease log of this version", ErrStateCorrupt)
	}
	frames, err := readFrames(raw[len(walMagic):])
	if err != nil {
		return nil, nil, err
	}
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("%w: no lease table", ErrStateCorrupt)
	}
	var tbl leaseTable
	if err := json.Unmarshal(frames[0], &tbl); err != nil {
		return nil, nil, fmt.Errorf("lease table: %w (%v)", ErrStateCorrupt, err)
	}
	events := make([]walEvent, len(frames)-1)
	for i, frame := range frames[1:] {
		if err := json.Unmarshal(frame, &events[i]); err != nil {
			return nil, nil, fmt.Errorf("event %d: %w (%v)", i, ErrStateCorrupt, err)
		}
	}
	return &tbl, events, nil
}

// begin makes tbl, stamped with this incarnation's epoch, the durable
// truth: wal.log is replaced atomically by the magic and tbl alone, and
// stays open for the events that follow. Ephemeral state writes
// nothing.
func (st *walState) begin(tbl *leaseTable) error {
	if st.dir == "" {
		return nil
	}
	tbl.Epoch = st.epoch
	payload, err := json.Marshal(tbl)
	if err != nil {
		return st.disable(err)
	}
	path := filepath.Join(st.dir, walFile)
	err = atomicfile.Write(nil, path, func(f *os.File) error {
		_, err := f.Write(appendFrame(append([]byte(nil), walMagic[:]...), payload))
		return err
	})
	if err == nil {
		st.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	}
	if err != nil {
		return st.disable(err)
	}
	return nil
}

// append logs one event. Ephemeral state drops it.
func (st *walState) append(ev walEvent) error {
	if st.f == nil || st.broken != nil {
		return st.broken
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return st.disable(err)
	}
	if _, err := st.f.Write(appendFrame(nil, payload)); err != nil {
		return st.disable(err)
	}
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

// close releases the log handle and, for ephemeral state, removes the
// private spill dir.
func (st *walState) close() error {
	if st.f != nil {
		st.f.Close()
		st.f = nil
	}
	if st.dir == "" {
		return os.RemoveAll(st.spillDir)
	}
	return nil
}
