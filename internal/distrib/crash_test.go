package distrib_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"destset"
	"destset/internal/distrib"
	"destset/internal/results"
)

// uploadRange completes one lease by uploading its cells' records.
func uploadRange(t *testing.T, coord *distrib.Coordinator, lease distrib.Lease, worker, fp string, records map[int][]string) distrib.CompleteReply {
	t.Helper()
	var lines []string
	for i := lease.Lo; i < lease.Hi; i++ {
		lines = append(lines, records[i]...)
	}
	reply, err := coord.Complete(lease.ID, worker, fp, strings.NewReader(strings.Join(lines, "\n")+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	return reply
}

// finishSweep drives the coordinator API as a single worker until the
// sweep reports done, returning every range it was granted.
func finishSweep(t *testing.T, coord *distrib.Coordinator, worker, fp string, records map[int][]string) []distrib.Lease {
	t.Helper()
	var granted []distrib.Lease
	for {
		reply, err := coord.Lease(worker, fp)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Done {
			return granted
		}
		if reply.Failed != "" {
			t.Fatalf("sweep failed: %s", reply.Failed)
		}
		if reply.Lease == nil {
			t.Fatal("nothing grantable, but the sweep is not done")
		}
		granted = append(granted, *reply.Lease)
		uploadRange(t, coord, *reply.Lease, worker, fp, records)
	}
}

// TestCoordinatorCrashResume is the ISSUE acceptance pin: a coordinator
// with a state dir is abandoned mid-sweep without any shutdown — the
// in-process equivalent of kill -9 — and a fresh coordinator over the
// same dir resumes it: completed ranges are re-adopted (never
// re-leased), the in-flight lease is requeued, and the final merged
// output is byte-identical to the uninterrupted single-process run.
// Covers both plan kinds; resume replays the logged table plus every
// grant and completion after it.
func TestCoordinatorCrashResume(t *testing.T) {
	for _, tc := range []struct {
		name string
		def  destset.SweepDef
	}{
		{"timing", timingDef()},
		{"trace", traceDef()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			def := tc.def
			want := localJSONL(t, def)
			records := cellRecords(t, def)
			plan, err := def.Plan()
			if err != nil {
				t.Fatal(err)
			}
			fp := plan.Fingerprint()
			cfg := distrib.Config{
				Def:       def,
				ChunkSize: 1,
				LeaseTTL:  time.Minute,
				StateDir:  t.TempDir(),
				Logf:      t.Logf,
			}

			// First incarnation: complete two ranges, leave a third
			// in flight, then "crash" — no Drain, no Close.
			coord1, err := distrib.NewCoordinator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var completed []distrib.Lease
			for i := 0; i < 2; i++ {
				reply, err := coord1.Lease("pre-crash", fp)
				if err != nil || reply.Lease == nil {
					t.Fatalf("pre-crash lease %d = %+v, %v", i, reply, err)
				}
				uploadRange(t, coord1, *reply.Lease, "pre-crash", fp, records)
				completed = append(completed, *reply.Lease)
			}
			inflight, err := coord1.Lease("pre-crash", fp)
			if err != nil || inflight.Lease == nil {
				t.Fatalf("in-flight lease = %+v, %v", inflight, err)
			}
			doneBefore := coord1.Progress().DoneCells

			// Second incarnation over the same dir.
			coord2, err := distrib.NewCoordinator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer coord2.Close()
			p := coord2.Progress()
			if p.DoneCells != doneBefore {
				t.Fatalf("resumed with %d cells done, crashed with %d", p.DoneCells, doneBefore)
			}
			if p.LeasedCells != 0 {
				t.Fatalf("resumed with %d cells still leased; the dead incarnation's lease must be requeued", p.LeasedCells)
			}

			granted := finishSweep(t, coord2, "post-crash", fp, records)
			for _, g := range granted {
				for _, c := range completed {
					if g.Lo < c.Hi && c.Lo < g.Hi {
						t.Errorf("resumed coordinator re-leased completed cells [%d,%d) as [%d,%d)",
							c.Lo, c.Hi, g.Lo, g.Hi)
					}
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := coord2.Wait(ctx); err != nil {
				t.Fatal(err)
			}

			var got bytes.Buffer
			if err := coord2.WriteMerged(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("resumed merged output differs from the uninterrupted run:\n--- resumed\n%s\n--- local\n%s",
					got.Bytes(), want)
			}
		})
	}
}

// TestCrashResumeCarriesAttempts pins that the retry budget survives
// restarts: a grant burned before the crash still counts after resume,
// so a range cannot dodge MaxAttempts by crashing the coordinator.
func TestCrashResumeCarriesAttempts(t *testing.T) {
	def := timingDef()
	clock := &testClock{now: time.Unix(1_700_000_000, 0)}
	cfg := distrib.Config{
		Def:         def,
		ChunkSize:   100, // one range: every grant hands out the same cells
		LeaseTTL:    time.Second,
		MaxAttempts: 2,
		StateDir:    t.TempDir(),
		Now:         clock.Now,
		Logf:        t.Logf,
	}
	plan, _ := def.Plan()
	fp := plan.Fingerprint()

	coord1, err := distrib.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reply, err := coord1.Lease("crashy", fp); err != nil || reply.Lease == nil {
		t.Fatalf("attempt 1 = %+v, %v", reply, err)
	}
	// Crash with the lease in flight; attempt 1 is spent.

	coord2, err := distrib.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	reply, err := coord2.Lease("crashy", fp)
	if err != nil || reply.Lease == nil {
		t.Fatalf("attempt 2 after resume = %+v, %v", reply, err)
	}
	clock.Advance(2 * time.Second) // expire attempt 2
	reply, err = coord2.Lease("crashy", fp)
	if err != nil || reply.Failed == "" {
		t.Fatalf("post-budget lease = %+v, %v; want sweep failure (attempt 1 must survive the crash)", reply, err)
	}
}

// TestResumeRefusesDifferentPlan: a state dir belongs to one sweep; a
// coordinator for a different def must refuse it rather than mixing two
// sweeps' state.
func TestResumeRefusesDifferentPlan(t *testing.T) {
	dir := t.TempDir()
	coord1, err := distrib.NewCoordinator(distrib.Config{Def: timingDef(), StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	coord1.Close()
	if _, err := distrib.NewCoordinator(distrib.Config{Def: traceDef(), StateDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "resume must use the same def") {
		t.Fatalf("foreign state dir: err = %v, want a same-def refusal", err)
	}
}

// TestSpilledUploadsAndWideMerge is the bounded-memory pin: over 70
// single-cell ranges, every accepted upload must be present as a spill
// file on disk — the coordinator holds no records, and its state dir
// holds nothing but wal.log and spill/, both result records: the log a
// run of them, each of the plan's kind and fingerprint — and
// WriteMerged must still reproduce the single-process stream byte for
// byte, twice (spills are re-read, not consumed).
func TestSpilledUploadsAndWideMerge(t *testing.T) {
	seeds := make([]uint64, 35)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	def := destset.NewTimingSweepDef(
		[]destset.SimSpec{
			{Protocol: destset.ProtocolSnooping},
			{Protocol: destset.ProtocolDirectory},
		},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 100}},
		destset.WithSeeds(seeds...),
	)
	want := localJSONL(t, def)
	records := cellRecords(t, def)
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	fp := plan.Fingerprint()
	stateDir := t.TempDir()
	coord, err := distrib.NewCoordinator(distrib.Config{
		Def:       def,
		ChunkSize: 1,
		LeaseTTL:  time.Minute,
		StateDir:  stateDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	finishSweep(t, coord, "spiller", fp, records)

	if names := dirNames(t, stateDir); !reflect.DeepEqual(names, []string{"spill", "wal.log"}) {
		t.Errorf("state dir holds %v, want exactly [spill wal.log]", names)
	}
	entries, err := os.ReadDir(filepath.Join(stateDir, "spill"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != plan.Len() {
		t.Errorf("%d spill files for %d completed single-cell ranges; every accepted upload must be spilled",
			len(entries), plan.Len())
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".rslt") {
			t.Errorf("unexpected file %q in the spill dir (leaked temp file?)", e.Name())
		}
	}
	log, err := os.ReadFile(filepath.Join(stateDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rest := log; len(rest) > 0; n++ {
		var kind, recPlan string
		if kind, recPlan, _, rest, err = results.Next(rest); err != nil {
			t.Fatalf("wal.log record %d: %v", n, err)
		}
		if kind != def.Kind || recPlan != fp {
			t.Fatalf("wal.log record %d is a %s record of plan %s, want %s plan %s", n, kind, recPlan, def.Kind, fp)
		}
	}
	if want := 1 + 2*plan.Len(); n != want { // the table, then a grant and a completion per range
		t.Errorf("wal.log holds %d records, want %d", n, want)
	}

	for pass := 0; pass < 2; pass++ {
		var got bytes.Buffer
		if err := coord.WriteMerged(&got); err != nil {
			t.Fatalf("merge pass %d: %v", pass, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("merge pass %d differs from the single-process stream", pass)
		}
	}
}

// dirNames lists a directory's entry names, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestHeartbeatsLogNothing: a renewed deadline is not durable state (a
// resumed coordinator requeues every in-flight lease anyway), so a
// heartbeat must not grow the log — only grants, expiries, failures and
// completions do.
func TestHeartbeatsLogNothing(t *testing.T) {
	def := timingDef()
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	fp := plan.Fingerprint()
	dir := t.TempDir()
	coord, err := distrib.NewCoordinator(distrib.Config{Def: def, LeaseTTL: time.Minute, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	reply, err := coord.Lease("beater", fp)
	if err != nil || reply.Lease == nil {
		t.Fatalf("lease = %+v, %v", reply, err)
	}
	size := func() int64 {
		fi, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := size()
	for i := 0; i < 100; i++ {
		if err := coord.Heartbeat(reply.Lease.ID, "beater", fp); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if after := size(); after != before {
		t.Errorf("100 heartbeats grew wal.log from %d to %d bytes", before, after)
	}
}

// TestWriteMergedRejectsAlteredSpill: the merge copies spills verbatim,
// so it must check each against the length and checksum its result
// record's header holds since acceptance. A digit changed in a spilled
// record afterwards — same length, still valid JSON — is
// ErrStateCorrupt, not a merged file with a different number in it.
func TestWriteMergedRejectsAlteredSpill(t *testing.T) {
	def := timingDef()
	records := cellRecords(t, def)
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	coord, err := distrib.NewCoordinator(distrib.Config{Def: def, ChunkSize: 2, LeaseTTL: time.Minute, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	finishSweep(t, coord, "w", plan.Fingerprint(), records)

	spills, err := filepath.Glob(filepath.Join(stateDir, "spill", "*.rslt"))
	if err != nil || len(spills) == 0 {
		t.Fatalf("no spill files (%v)", err)
	}
	raw, err := os.ReadFile(spills[0])
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(raw, []byte(`"RuntimeNs":`))
	if at < 0 {
		t.Fatalf("no RuntimeNs in %s", spills[0])
	}
	digit := at + len(`"RuntimeNs":`)
	raw[digit] = '0' + (raw[digit]-'0'+1)%10
	if raw[digit] == '0' {
		raw[digit] = '1' // keep the number free of a leading zero
	}
	if err := os.WriteFile(spills[0], raw, 0o666); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := coord.WriteMerged(&got); !errors.Is(err, distrib.ErrStateCorrupt) {
		t.Fatalf("merge over an altered spill: err = %v, want ErrStateCorrupt", err)
	}
}

// TestWriteMergedRejectsMissingSpill: a spill is found by its range, so
// a state dir that lost a completed range's file is corrupt state, not
// an I/O error: the merge refuses it as ErrStateCorrupt.
func TestWriteMergedRejectsMissingSpill(t *testing.T) {
	def := timingDef()
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	stateDir := t.TempDir()
	coord, err := distrib.NewCoordinator(distrib.Config{Def: def, ChunkSize: 2, LeaseTTL: time.Minute, StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	finishSweep(t, coord, "w", plan.Fingerprint(), cellRecords(t, def))
	spills, err := filepath.Glob(filepath.Join(stateDir, "spill", "*.rslt"))
	if err != nil || len(spills) != 2 {
		t.Fatalf("%d spill files (%v), want 2", len(spills), err)
	}
	if err := os.Remove(spills[1]); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := coord.WriteMerged(&got); !errors.Is(err, distrib.ErrStateCorrupt) {
		t.Fatalf("merge over a removed spill: err = %v, want ErrStateCorrupt", err)
	}
}

// TestResumeTwiceNeverReissuesLeaseIDs crashes the coordinator twice
// with a lease in flight: the incarnations run at epochs 1, 2 and 3, no
// lease id is ever granted twice, and the final merge is still
// byte-identical to the single-process run.
func TestResumeTwiceNeverReissuesLeaseIDs(t *testing.T) {
	def := timingDef()
	want := localJSONL(t, def)
	records := cellRecords(t, def)
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	fp := plan.Fingerprint()
	cfg := distrib.Config{Def: def, ChunkSize: 1, LeaseTTL: time.Minute, StateDir: t.TempDir(), Logf: t.Logf}

	seen := make(map[string]bool)
	grant := func(coord *distrib.Coordinator, epoch int) distrib.Lease {
		t.Helper()
		reply, err := coord.Lease("w", fp)
		if err != nil || reply.Lease == nil {
			t.Fatalf("epoch %d lease = %+v, %v", epoch, reply, err)
		}
		id := reply.Lease.ID
		if seen[id] {
			t.Fatalf("epoch %d re-issued lease id %s", epoch, id)
		}
		if !strings.HasPrefix(id, fmt.Sprintf("lease-%d-", epoch)) {
			t.Errorf("epoch %d granted %s", epoch, id)
		}
		seen[id] = true
		return *reply.Lease
	}
	var coord *distrib.Coordinator
	for epoch := 1; epoch <= 2; epoch++ {
		if coord, err = distrib.NewCoordinator(cfg); err != nil {
			t.Fatal(err)
		}
		uploadRange(t, coord, grant(coord, epoch), "w", fp, records)
		grant(coord, epoch) // left in flight by the crash
	}
	coord, err = distrib.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	for !coord.Progress().Done {
		uploadRange(t, coord, grant(coord, 3), "w", fp, records)
	}
	var got bytes.Buffer
	if err := coord.WriteMerged(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("merged output after two resumes differs from the single-process run")
	}
}

// TestResumeDemotesDamagedSpill: a resumed coordinator trusts no spill
// unseen. A completed range whose spill was altered or removed while
// the coordinator was down goes back to pending and is recomputed, the
// intact one stays done, and the merge is still byte-identical.
func TestResumeDemotesDamagedSpill(t *testing.T) {
	def := timingDef()
	want := localJSONL(t, def)
	records := cellRecords(t, def)
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	fp := plan.Fingerprint()
	stateDir := t.TempDir()
	cfg := distrib.Config{Def: def, ChunkSize: 1, LeaseTTL: time.Minute, StateDir: stateDir, Logf: t.Logf}
	coord1, err := distrib.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		reply, err := coord1.Lease("pre-crash", fp)
		if err != nil || reply.Lease == nil {
			t.Fatalf("lease %d = %+v, %v", i, reply, err)
		}
		uploadRange(t, coord1, *reply.Lease, "pre-crash", fp, records)
	}
	spills, err := filepath.Glob(filepath.Join(stateDir, "spill", "*.rslt"))
	if err != nil || len(spills) != 3 {
		t.Fatalf("%d spill files (%v), want 3", len(spills), err)
	}
	raw, err := os.ReadFile(spills[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-2] ^= 0x01 // inside the last record, before its newline
	if err := os.WriteFile(spills[0], raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(spills[1]); err != nil {
		t.Fatal(err)
	}

	coord2, err := distrib.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if done := coord2.Progress().DoneCells; done != 1 {
		t.Fatalf("resumed with %d cells done, want 1 (the altered and the removed range demoted)", done)
	}
	finishSweep(t, coord2, "post-crash", fp, records)
	var got bytes.Buffer
	if err := coord2.WriteMerged(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("merged output after a demoted range differs from the single-process run")
	}
}
