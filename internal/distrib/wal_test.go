package distrib

import (
	"encoding/binary"
	"errors"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"destset"
	"destset/internal/results"
)

// testTable is a lease table with a task in every state.
func testTable() *leaseTable {
	return &leaseTable{
		Plan: "fp-round-trip",
		Kind: "timing",
		Tasks: []tableTask{
			{Lo: 0, Hi: 2, State: "done", Cached: true},
			{Lo: 2, Hi: 4, State: "leased", Attempts: 2, Lease: "lease-1-0", Worker: "w1", LastFailed: "w2"},
			{Lo: 4, Hi: 6, State: "pending", Attempts: 1, LastFailed: "w1"},
		},
		Pending: []int{2},
	}
}

// testEvents is one event of every kind.
func testEvents() []walEvent {
	return []walEvent{
		{E: "grant", Task: 2, Lease: "lease-1-1", Worker: "w1", Attempts: 2},
		{E: "expire", Task: 2, Lease: "lease-1-1", Worker: "w1"},
		{E: "grant", Task: 2, Lease: "lease-1-2", Worker: "w2", Attempts: 3},
		{E: "complete", Task: 2, Lease: "lease-1-2", Worker: "w2"},
		{E: "fail", Task: 1, Lease: "lease-1-0", Worker: "w1", Reason: "worker reported failure"},
		{E: "sweepfail", Reason: "cells 2-4 failed after 3 attempts"},
	}
}

// writeLog lays down dir's log the way a coordinator does — the table at
// birth, then one record per event — and returns its bytes.
func writeLog(t *testing.T, dir string, tbl *leaseTable, events ...walEvent) []byte {
	t.Helper()
	st, _, _, err := openWALState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.begin(tbl); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if err := st.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCheckpointRoundTrip is the fidelity property of the log's first
// record, its checkpoint: the lease table begin writes reads back
// identical, stamped with the incarnation's epoch; each incarnation over
// the dir gets the next epoch; and a rebirth replaces the log with a
// fresh one that holds only its own checkpoint.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, tbl, events, err := openWALState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tbl != nil || len(events) != 0 || st.epoch != 1 {
		t.Fatalf("fresh dir: table %v, %d events, epoch %d; want none, none, 1", tbl, len(events), st.epoch)
	}
	st.close()

	want := testTable()
	writeLog(t, dir, want, testEvents()...)
	st2, got, _, err := openWALState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want.Epoch != 1 || st2.epoch != 2 {
		t.Fatalf("epochs: logged table %d, reopened state %d, want 1 and 2", want.Epoch, st2.epoch)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("table round trip:\n got %+v\nwant %+v", got, want)
	}

	// The second incarnation's birth replaces the log with its table.
	if err := st2.begin(got); err != nil {
		t.Fatal(err)
	}
	st2.close()
	st3, again, againEvents, err := openWALState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.close()
	if again.Epoch != 2 || st3.epoch != 3 || len(againEvents) != 0 {
		t.Fatalf("after a rebirth: table epoch %d, state epoch %d, %d events; want 2, 3, 0",
			again.Epoch, st3.epoch, len(againEvents))
	}
}

// TestWALRoundTrip is the log's fidelity property: the events appended
// after the checkpoint read back identical and in order, behind the
// table they were appended to.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want, wantEvents := testTable(), testEvents()
	writeLog(t, dir, want, wantEvents...)
	st, got, gotEvents, err := openWALState(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("table round trip:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(gotEvents, wantEvents) {
		t.Fatalf("event round trip:\n got %+v\nwant %+v", gotEvents, wantEvents)
	}
}

// TestWALToleratesTornTail pins the crash semantics: a log whose final
// event record is incomplete — the coordinator died mid-append — loads
// the table and every complete event before it, whichever byte the cut
// falls on.
func TestWALToleratesTornTail(t *testing.T) {
	tbl, events := testTable(), testEvents()
	raw := writeLog(t, t.TempDir(), tbl, events...)
	// ends[k] is the log's length holding the table and k events.
	ends := make([]int, len(events)+1)
	for k := range ends {
		ends[k] = len(writeLog(t, t.TempDir(), testTable(), events[:k]...))
	}
	k := 0
	for cut := ends[0]; cut < len(raw); cut++ {
		for ends[k+1] <= cut {
			k++
		}
		got, gotEvents, err := decodeWAL(raw[:cut])
		if err != nil {
			t.Fatalf("torn at byte %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, tbl) || !slices.Equal(gotEvents, events[:k]) {
			t.Fatalf("torn at byte %d: got %d events, want the %d complete ones and the table", cut, len(gotEvents), k)
		}
	}
}

// wantCorrupt writes raw, altered by mutate, as a state dir's log and
// requires openWALState to refuse it as ErrStateCorrupt.
func wantCorrupt(t *testing.T, raw []byte, name string, mutate func([]byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), mutate(append([]byte(nil), raw...)), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openWALState(dir); !errors.Is(err, ErrStateCorrupt) {
		t.Errorf("%s: err = %v, want ErrStateCorrupt", name, err)
	}
}

// recordHeaderLen is the length of a result record's header: the
// offset of its kind, fingerprint and payload.
var recordHeaderLen = len(results.Encode("", "", nil))

// legacyLog is a lease log in the hand-framed format this version
// replaced: the magic "DSETWAL\x02", then u32 length | u64 CRC-64/ECMA |
// payload per frame, the lease table first.
func legacyLog(frames ...string) []byte {
	raw := []byte("DSETWAL\x02")
	for _, f := range frames {
		raw = binary.LittleEndian.AppendUint32(raw, uint32(len(f)))
		raw = binary.LittleEndian.AppendUint64(raw, crc64.Checksum([]byte(f), crc64.MakeTable(crc64.ECMA)))
		raw = append(raw, f...)
	}
	return raw
}

// TestCheckpointRejectsCorruption is the rejection matrix of the log's
// checkpoint record, mirroring internal/results: bit flips in the table
// or its checksum, an absurd length, a missing or torn table, a non-JSON
// table, a log in the older hand-framed format, and a dir in the older
// checkpoint-file layout are all ErrStateCorrupt — a torn table is never
// a torn tail, since begin writes it atomically — and never a silently
// different lease table.
func TestCheckpointRejectsCorruption(t *testing.T) {
	tbl := testTable()
	raw := writeLog(t, t.TempDir(), tbl, testEvents()[:2]...)
	// payload is the offset of the table's JSON.
	payload := recordHeaderLen + len(tbl.Kind) + len(tbl.Plan)
	corrupt := func(name string, mutate func([]byte) []byte) { t.Helper(); wantCorrupt(t, raw, name, mutate) }
	corrupt("flipped-table-byte", func(b []byte) []byte { b[payload] ^= 0x01; return b })
	corrupt("flipped-checksum", func(b []byte) []byte { b[24] ^= 0x01; return b })
	corrupt("absurd-length", func(b []byte) []byte {
		for i := 20; i < 24; i++ {
			b[i] = 0xff
		}
		return b
	})
	corrupt("empty-file", func([]byte) []byte { return nil })
	corrupt("magic-only", func(b []byte) []byte { return b[:8] })
	corrupt("torn-table", func(b []byte) []byte { return b[:payload+3] })
	// A record holding non-JSON bytes passes the CRC (it guards what was
	// written) but must still be refused as a table.
	corrupt("non-json-table", func([]byte) []byte { return results.Encode(tbl.Kind, tbl.Plan, []byte("{not json")) })

	// A log of the hand-framed format: refused whole, with a message that
	// names it and says how to start over.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFile), legacyLog(`{"plan":"fp","kind":"timing","epoch":1}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := openWALState(dir); !errors.Is(err, ErrStateCorrupt) ||
		!strings.Contains(err.Error(), "older DSETWAL format") || !strings.Contains(err.Error(), "remove the dir") {
		t.Errorf("hand-framed log: err = %v, want ErrStateCorrupt naming the older format", err)
	}

	// A state dir in the checkpoint-plus-rotated-logs layout: resuming
	// it as a fresh sweep would silently restart the work it recorded.
	dir = t.TempDir()
	for _, name := range []string{"checkpoint", "wal-000001.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("DSETCKP\x01"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := openWALState(dir); !errors.Is(err, ErrStateCorrupt) {
		t.Errorf("older layout: err = %v, want ErrStateCorrupt", err)
	}
}

// TestWALRejectsCorruption is the rejection matrix of the rest of the
// log: any damage to a complete record — its magic or version, a bit
// flip in its payload or checksum, an absurd length, a non-JSON event —
// and an event record of another plan or kind spliced into the log are
// ErrStateCorrupt; only a torn event tail is tolerated
// (TestWALToleratesTornTail).
func TestWALRejectsCorruption(t *testing.T) {
	tbl := testTable()
	raw := writeLog(t, t.TempDir(), tbl, testEvents()[:2]...)
	// ev is the offset of the first event record, just past the checkpoint.
	ev := len(writeLog(t, t.TempDir(), testTable()))
	table := raw[:ev]
	event := []byte(`{"e":"grant","task":2,"lease":"lease-1-1","worker":"w1","attempts":2}`)
	corrupt := func(name string, mutate func([]byte) []byte) { t.Helper(); wantCorrupt(t, raw, name, mutate) }
	corrupt("bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	corrupt("other-version", func(b []byte) []byte { b[8] ^= 0x03; return b })
	corrupt("bad-event-magic", func(b []byte) []byte { b[ev] ^= 0xff; return b })
	corrupt("flipped-event-byte", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	corrupt("flipped-event-checksum", func(b []byte) []byte { b[ev+24] ^= 0x01; return b })
	corrupt("absurd-event-length", func(b []byte) []byte {
		for i := 20; i < 24; i++ {
			b[ev+i] = 0xff
		}
		return b
	})
	// A record holding non-JSON bytes passes the CRC but must still be
	// refused as an event.
	corrupt("non-json-event", func([]byte) []byte {
		return append(append([]byte(nil), table...), results.Encode(tbl.Kind, tbl.Plan, []byte("{not json"))...)
	})
	// A well-formed event of another sweep, spliced in before this one's:
	// its record checks out, but it is not this log's.
	for name, rec := range map[string][]byte{
		"foreign-plan-event": results.Encode(tbl.Kind, "fp-other", event),
		"foreign-kind-event": results.Encode("trace", tbl.Plan, event),
	} {
		corrupt(name, func(b []byte) []byte {
			return append(append(append([]byte(nil), table...), rec...), b[ev:]...)
		})
	}
}

// TestWALOfAnotherSweepIsRefused: a log is the state of one sweep, named
// by the kind and plan in every record's header. A coordinator for
// another plan or kind refuses it as the state of a different def.
func TestWALOfAnotherSweepIsRefused(t *testing.T) {
	def := destset.NewTimingSweepDef([]destset.SimSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 100}})
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for name, tbl := range map[string]*leaseTable{
		"another-plan": {Plan: "fp-other", Kind: def.Kind, Tasks: []tableTask{{Lo: 0, Hi: 1, State: "pending"}}, Pending: []int{0}},
		"another-kind": {Plan: plan.Fingerprint(), Kind: destset.PlanKindTrace, Tasks: []tableTask{{Lo: 0, Hi: 1, State: "pending"}}, Pending: []int{0}},
	} {
		dir := t.TempDir()
		writeLog(t, dir, tbl)
		if _, err := NewCoordinator(Config{Def: def, StateDir: dir}); err == nil ||
			!strings.Contains(err.Error(), "resume must use the same def") {
			t.Errorf("%s: err = %v, want a same-def refusal", name, err)
		}
	}
}

// TestTempStateIsRemovedOnClose: a coordinator without a state dir runs
// the durable path over a private temp dir — its log is there while the
// coordinator lives — and Close removes the dir.
func TestTempStateIsRemovedOnClose(t *testing.T) {
	def := destset.NewTimingSweepDef([]destset.SimSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 100}})
	c, err := NewCoordinator(Config{Def: def})
	if err != nil {
		t.Fatal(err)
	}
	dir := c.st.dir
	raw, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatalf("temp state has no lease log before Close: %v", err)
	}
	if _, _, err := decodeWAL(raw); err != nil {
		t.Fatalf("temp state's lease log: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp state dir survives Close: %v", err)
	}
}
