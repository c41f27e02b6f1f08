//go:build stress

package distrib_test

// Million-cell coordinator stress: nightly-only (build tag "stress",
// driven by .github/workflows/nightly-stress.yml). The sweep is never
// executed — cells are completed with synthesized records straight
// through Lease/Complete, so the test measures exactly the coordinator:
// plan and lease-table residency at a million cells, the size of the
// lease log and spills under a durable state dir, and how long a
// restarted coordinator takes to resume a half-done sweep.
//
// Run it by hand with:
//
//	go test -tags stress ./internal/distrib/ -run TestMillionCell -v -timeout 60m
//
// -short scales the sweep down to 50k cells for a quick local check.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"destset"
	"destset/internal/distrib"
)

// stressDef builds a sweep of exactly cells plan cells across four
// engines (the paper's three protocols, multicast under two policies)
// so the dataset-key table stays at cells/4 entries — sims share
// workload datasets, which is the shape real sweeps have.
func stressDef(cells int) destset.SweepDef {
	sims := []destset.SimSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
		{Protocol: destset.ProtocolMulticast, PolicyName: "owner"},
		{Protocol: destset.ProtocolMulticast, PolicyName: "group"},
	}
	seeds := make([]uint64, cells/len(sims))
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	return destset.NewTimingSweepDef(sims,
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 100}},
		destset.WithSeeds(seeds...),
	)
}

// heapMB forces a collection and returns live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// drive leases and completes cells with synthesized records until the
// coordinator reports at least target done cells (or the sweep is
// done), returning how many cells this call completed.
func drive(t *testing.T, coord *distrib.Coordinator, target int) int {
	t.Helper()
	plan := coord.Plan()
	fp := plan.Fingerprint()
	completed := 0
	var rec bytes.Buffer
	for {
		p := coord.Progress()
		if p.Done || p.DoneCells >= target {
			return completed
		}
		if p.Failed != "" {
			t.Fatalf("sweep failed: %s", p.Failed)
		}
		reply, err := coord.Lease("stress", fp)
		if err != nil {
			t.Fatal(err)
		}
		if reply.Lease == nil {
			t.Fatalf("no lease with %d cells pending", p.PendingCells)
		}
		rec.Reset()
		for i := reply.Lease.Lo; i < reply.Lease.Hi; i++ {
			cell := plan.Cell(i)
			fmt.Fprintf(&rec, "{\"Sim\":%q,\"Workload\":%q,\"Seed\":%d}\n",
				cell.Engine, cell.Workload, cell.Seed)
		}
		cr, err := coord.Complete(reply.Lease.ID, "stress", fp, &rec)
		if err != nil {
			t.Fatal(err)
		}
		if !cr.Accepted {
			t.Fatalf("completion of lease %s not accepted", reply.Lease.ID)
		}
		completed += reply.Lease.Hi - reply.Lease.Lo
	}
}

// countingWriter counts newlines so a million-line merge never has to
// sit in memory.
type countingWriter struct{ lines int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.lines += bytes.Count(p, []byte{'\n'})
	return len(p), nil
}

func TestMillionCellSweep(t *testing.T) {
	cells := 1_000_000
	if testing.Short() {
		cells = 50_000
	}
	def := stressDef(cells)
	stateDir := t.TempDir()
	cfg := distrib.Config{
		Def:       def,
		ChunkSize: 2000,
		LeaseTTL:  time.Minute,
		StateDir:  stateDir,
	}

	baseline := heapMB()
	start := time.Now()
	coord, err := distrib.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boot := time.Since(start)
	plan := coord.Plan()
	if plan.Len() != cells {
		t.Fatalf("plan holds %d cells, want %d", plan.Len(), cells)
	}
	t.Logf("boot: %d cells planned in %s, heap %.1f MiB (baseline %.1f MiB, %.0f B/cell)",
		cells, boot, heapMB(), baseline, (heapMB()-baseline)*(1<<20)/float64(cells))

	// Phase 1: drive half the sweep, then stop the coordinator as if
	// the process were being redeployed.
	start = time.Now()
	firstHalf := drive(t, coord, cells/2)
	t.Logf("phase 1: %d cells completed in %s (%.0f cells/s), heap %.1f MiB",
		firstHalf, time.Since(start), float64(firstHalf)/time.Since(start).Seconds(), heapMB())
	logStateDir(t, stateDir)
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume over the same state dir. Nothing completed may be
	// lost; recovery replays the logged table and the events after it.
	start = time.Now()
	coord2, err := distrib.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	resume := time.Since(start)
	p := coord2.Progress()
	if p.DoneCells != firstHalf {
		t.Fatalf("resumed coordinator reports %d done cells, want %d", p.DoneCells, firstHalf)
	}
	t.Logf("resume: %d done cells recovered in %s, heap %.1f MiB", p.DoneCells, resume, heapMB())

	start = time.Now()
	secondHalf := drive(t, coord2, cells)
	if firstHalf+secondHalf != cells {
		t.Fatalf("completed %d + %d cells, want %d total", firstHalf, secondHalf, cells)
	}
	t.Logf("phase 2: %d cells completed in %s (%.0f cells/s), heap %.1f MiB",
		secondHalf, time.Since(start), float64(secondHalf)/time.Since(start).Seconds(), heapMB())
	logStateDir(t, stateDir)

	if !coord2.Progress().Done {
		t.Fatal("sweep not done after every cell completed")
	}
	var out countingWriter
	start = time.Now()
	if err := coord2.WriteMerged(&out); err != nil {
		t.Fatal(err)
	}
	if out.lines != cells+1 { // the manifest line, then one record per cell
		t.Fatalf("merged output holds %d lines, want %d", out.lines, cells+1)
	}
	t.Logf("merge: %d records streamed in %s", out.lines, time.Since(start))
}

// logStateDir reports the state dir's footprint: the lease log's size
// and the spill files' count and total bytes.
func logStateDir(t *testing.T, dir string) {
	t.Helper()
	wal, err := os.Stat(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	spills, _ := filepath.Glob(filepath.Join(dir, "spill", "*.rslt"))
	var spillBytes int64
	for _, p := range spills {
		if fi, err := os.Stat(p); err == nil {
			spillBytes += fi.Size()
		}
	}
	t.Logf("state dir: wal.log (%d bytes), %d spill file(s) (%d bytes)", wal.Size(), len(spills), spillBytes)
}
