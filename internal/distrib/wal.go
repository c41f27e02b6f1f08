package distrib

// Coordinator durability: one write-ahead log of the lease table under
// the coordinator's state dir (-state-dir, or a private temp dir that
// Close removes).
//
// The log is a run of result records (internal/results): the same
// header, lengths and CRC-64/ECMA that guard every cell result and every
// spill, concatenated. Each record's kind is the plan kind and its
// fingerprint the plan fingerprint, so a log of another sweep, or a
// record spliced in from one, is refused. Corruption is rejected rather
// than half-read, with one deliberate asymmetry at the log's tail: a
// coordinator killed mid-append leaves a torn final record, which is the
// *expected* crash artifact — replay keeps every complete record and
// stops there. A complete record that fails its check, by contrast,
// means the log was damaged after the fact (bit flip, concurrent writer)
// and recovery refuses it: a lease table rebuilt over silent corruption
// would re-lease completed work or adopt ranges that were never
// accepted.
//
// Layout under the state dir:
//
//	wal.log            the lease table, then one record per event
//	spill/<addr>.rslt  one result record per accepted range, at the
//	                   address its range determines (spill.go)
//
// The first record, the log's checkpoint, is the lease table as this
// incarnation started: at every birth, after replay and reconciliation,
// the coordinator writes a new wal.log holding just that table,
// atomically, so a crash at any point leaves either the old log or the
// new one. Every later record is one grant, expiry, failure, completion
// or sweep failure. Heartbeats log nothing, so a range logs at most
// 2×MaxAttempts+1 events and the log never needs compacting while a
// sweep runs.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"destset/internal/results"
)

// ErrStateCorrupt reports a coordinator state dir that failed integrity
// validation: a damaged or foreign record in the lease log, a log in an
// older format, events that do not apply to the table, or, when the
// merge reads it, a completed range's spill that is missing or fails its
// check (resume recomputes such a range instead). A corrupt lease log is
// never silently rebuilt — resuming over it could re-lease completed
// ranges — so the operator must remove the dir (or point the
// coordinator elsewhere) to start the sweep over.
var ErrStateCorrupt = errors.New("distrib: corrupt coordinator state")

// walFile is the log's name under the state dir.
const walFile = "wal.log"

// legacyLogPrefix opens a lease log of the older, hand-framed format
// ("DSETWAL" and a version byte), which this version does not read.
var legacyLogPrefix = []byte("DSETWAL")

// walEvent is one logged lease-table transition. Events carry absolute
// values (attempt counts), so replay is exact application, not
// re-derivation.
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
}

// leaseTable is the log's first record, its checkpoint: everything
// recovery needs besides the events appended after it.
type leaseTable struct {
	// Plan and Kind are the sweep's plan fingerprint and kind, carried in
	// every record's header rather than in the table's JSON.
	Plan string `json:"-"`
	Kind string `json:"-"`
	// Epoch counts coordinator incarnations over this state dir; lease
	// ids are namespaced by it so a restart can never re-issue an id.
	Epoch   int         `json:"epoch"`
	Tasks   []tableTask `json:"tasks"`
	Pending []int       `json:"pending"`
	Failed  string      `json:"failed,omitempty"`
}

// walState owns the on-disk coordinator state: the spill directory and
// the open log.
type walState struct {
	dir, spillDir string
	// kind and plan head every record the log holds (begin).
	kind, plan string
	f          *os.File // open log, from begin on
	epoch      int      // this incarnation's epoch

	broken error // first durability failure; disables further writes
}

// openWALState prepares a state dir and loads whatever a prior
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
	path := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return st, nil, nil, nil
	case err != nil:
		return nil, nil, nil, err
	}
	if tbl, events, err = decodeWAL(raw); err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	st.epoch = tbl.Epoch + 1
	return st, tbl, events, nil
}

// decodeWAL decodes a log's bytes into its lease table and events. A
// torn final event is dropped (crash mid-append); anything else that
// fails validation — a missing or torn table included, since the table
// is written atomically, and an event whose kind or plan is not the
// table's — is ErrStateCorrupt.
func decodeWAL(raw []byte) (*leaseTable, []walEvent, error) {
	if bytes.HasPrefix(raw, legacyLogPrefix) {
		return nil, nil, fmt.Errorf("%w: a lease log in the older %s format, which this version does not read; remove the dir to start the sweep over",
			ErrStateCorrupt, legacyLogPrefix)
	}
	kind, plan, payload, raw, err := results.Next(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("lease table: %w (%v)", ErrStateCorrupt, err)
	}
	tbl := &leaseTable{Plan: plan, Kind: kind}
	if err := json.Unmarshal(payload, tbl); err != nil {
		return nil, nil, fmt.Errorf("lease table: %w (%v)", ErrStateCorrupt, err)
	}
	var events []walEvent
	for len(raw) > 0 {
		kind, plan, payload, raw, err = results.Next(raw)
		switch {
		case errors.Is(err, io.ErrUnexpectedEOF):
			return tbl, events, nil
		case err != nil:
			return nil, nil, fmt.Errorf("event %d: %w (%v)", len(events), ErrStateCorrupt, err)
		case kind != tbl.Kind || plan != tbl.Plan:
			return nil, nil, fmt.Errorf("event %d: %w (a %s record of plan %s in the log of %s plan %s)",
				len(events), ErrStateCorrupt, kind, plan, tbl.Kind, tbl.Plan)
		}
		var ev walEvent
		if err := json.Unmarshal(payload, &ev); err != nil {
			return nil, nil, fmt.Errorf("event %d: %w (%v)", len(events), ErrStateCorrupt, err)
		}
		events = append(events, ev)
	}
	return tbl, events, nil
}

// begin makes tbl, stamped with this incarnation's epoch, the durable
// truth: wal.log is replaced atomically by tbl's record alone, and stays
// open for the events that follow, each a record of tbl's kind and plan.
func (st *walState) begin(tbl *leaseTable) error {
	tbl.Epoch = st.epoch
	st.kind, st.plan = tbl.Kind, tbl.Plan
	payload, err := json.Marshal(tbl)
	if err != nil {
		return st.disable(err)
	}
	path := filepath.Join(st.dir, walFile)
	err = results.WriteFile(path, st.kind, st.plan, payload)
	if err == nil {
		st.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	}
	if err != nil {
		return st.disable(err)
	}
	return nil
}

// append logs one event.
func (st *walState) append(ev walEvent) error {
	if st.f == nil || st.broken != nil {
		return st.broken
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return st.disable(err)
	}
	if _, err := st.f.Write(results.Encode(st.kind, st.plan, payload)); err != nil {
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

// close releases the log handle; the state dir stays for the next
// incarnation.
func (st *walState) close() error {
	if st.f == nil {
		return nil
	}
	err := st.f.Close()
	st.f = nil
	return err
}
