package distrib

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testTable is a lease table with a task in every state.
func testTable() *leaseTable {
	return &leaseTable{
		Plan: "fp-round-trip",
		Kind: "timing",
		Tasks: []tableTask{
			{Lo: 0, Hi: 2, State: "done", Cached: true, Spill: "aa.jsonl"},
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
		{E: "complete", Task: 2, Lease: "lease-1-2", Worker: "w2", Spill: "0123456789abcdef.jsonl"},
		{E: "fail", Task: 1, Lease: "lease-1-0", Worker: "w1", Reason: "worker reported failure"},
		{E: "sweepfail", Reason: "cells 2-4 failed after 3 attempts"},
	}
}

// writeLog lays down dir's log the way a coordinator does — the table at
// birth, then one frame per event — and returns its bytes.
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
// frame, its checkpoint: the lease table begin writes reads back
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
// event frame is incomplete — the coordinator died mid-append — loads
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
	dir := t.TempDir()
	path := filepath.Join(dir, walFile)
	k := 0
	for cut := ends[0]; cut < len(raw); cut++ {
		for ends[k+1] <= cut {
			k++
		}
		if err := os.WriteFile(path, raw[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		got, gotEvents, err := readWAL(path)
		if err != nil {
			t.Fatalf("torn at byte %d: %v", cut, err)
		}
		if !reflect.DeepEqual(got, tbl) || !reflect.DeepEqual(gotEvents, events[:k]) {
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

// TestCheckpointRejectsCorruption is the rejection matrix of the log's
// checkpoint frame, mirroring internal/results: bit flips in the table
// or its checksum, an absurd length, a missing or torn table, a non-JSON
// table, and a dir in the older checkpoint-file layout are all
// ErrStateCorrupt — a torn table is never a torn tail, since begin
// writes it atomically — and never a silently different lease table.
func TestCheckpointRejectsCorruption(t *testing.T) {
	raw := writeLog(t, t.TempDir(), testTable(), testEvents()[:2]...)
	corrupt := func(name string, mutate func([]byte) []byte) { t.Helper(); wantCorrupt(t, raw, name, mutate) }
	corrupt("flipped-table-byte", func(b []byte) []byte { b[len(walMagic)+frameHeaderLen] ^= 0x01; return b })
	corrupt("flipped-checksum", func(b []byte) []byte { b[len(walMagic)+4] ^= 0x01; return b })
	corrupt("absurd-length", func(b []byte) []byte {
		for i := 0; i < 4; i++ {
			b[len(walMagic)+i] = 0xff
		}
		return b
	})
	corrupt("empty-file", func([]byte) []byte { return nil })
	corrupt("magic-only", func(b []byte) []byte { return b[:len(walMagic)] })
	corrupt("torn-table", func(b []byte) []byte { return b[:len(walMagic)+frameHeaderLen+3] })
	// A frame holding non-JSON bytes passes the CRC (it guards what was
	// written) but must still be refused as a table.
	corrupt("non-json-table", func([]byte) []byte {
		return appendFrame(append([]byte(nil), walMagic[:]...), []byte("{not json"))
	})

	// A state dir in the checkpoint-plus-rotated-logs layout: resuming
	// it as a fresh sweep would silently restart the work it recorded.
	dir := t.TempDir()
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
// log: bad magic or version, and any damage to a complete event frame —
// a bit flip in its payload or checksum, an absurd length, a non-JSON
// payload — is ErrStateCorrupt; only a torn event tail is tolerated
// (TestWALToleratesTornTail).
func TestWALRejectsCorruption(t *testing.T) {
	raw := writeLog(t, t.TempDir(), testTable(), testEvents()[:2]...)
	// ev is the offset of the first event frame, just past the checkpoint.
	ev := len(writeLog(t, t.TempDir(), testTable()))
	table := appendFrame(append([]byte(nil), walMagic[:]...), []byte(`{"plan":"fp","kind":"trace","epoch":1}`))
	corrupt := func(name string, mutate func([]byte) []byte) { t.Helper(); wantCorrupt(t, raw, name, mutate) }
	corrupt("bad-magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	corrupt("older-version", func(b []byte) []byte { b[7] = 1; return b })
	corrupt("flipped-event-byte", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })
	corrupt("flipped-event-checksum", func(b []byte) []byte { b[ev+4] ^= 0x01; return b })
	corrupt("absurd-event-length", func(b []byte) []byte {
		for i := 0; i < 4; i++ {
			b[ev+i] = 0xff
		}
		return b
	})
	// A frame holding non-JSON bytes passes the CRC but must still be
	// refused as an event.
	corrupt("non-json-event", func([]byte) []byte { return appendFrame(append([]byte(nil), table...), []byte("{not json")) })
}

// TestEphemeralStateDropsEverything: a coordinator without -state-dir
// spills to a private temp dir, logs nothing, and close removes the
// spill dir.
func TestEphemeralStateDropsEverything(t *testing.T) {
	st, err := newEphemeralState()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.begin(&leaseTable{Plan: "fp-e"}); err != nil {
		t.Fatal(err)
	}
	if err := st.append(walEvent{E: "grant", Task: 0}); err != nil {
		t.Fatal(err)
	}
	dir := st.spillDir
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ephemeral spill dir missing before close: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("ephemeral state wrote %d files", len(entries))
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("ephemeral spill dir survives close: %v", err)
	}
}
