package distrib_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"destset"
	"destset/internal/dataset"
	"destset/internal/distrib"
	"destset/internal/ingest"
	"destset/internal/workload"
)

// timingDef is a small execution-driven sweep: 2 sims × 1 workload × 2
// seeds = 4 cells.
func timingDef() destset.SweepDef {
	return destset.NewTimingSweepDef(
		[]destset.SimSpec{
			{Protocol: destset.ProtocolSnooping},
			{Protocol: destset.ProtocolDirectory},
		},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 300, Measure: 300}},
		destset.WithSeeds(1, 2),
	)
}

// traceDef is a small trace-driven sweep with interval observations, so
// cells emit multiple records: 2 engines × 1 workload × 2 seeds = 4
// cells, 3 records each.
func traceDef() destset.SweepDef {
	return destset.NewTraceSweepDef(
		[]destset.EngineSpec{
			{Protocol: destset.ProtocolSnooping},
			destset.SpecForPolicy(destset.OwnerGroup),
		},
		[]destset.WorkloadSpec{{Name: "ocean", Warm: 200, Measure: 600}},
		destset.WithSeeds(1, 2),
		destset.WithInterval(200),
	)
}

// localJSONL runs the def in-process at parallelism 1 — the reference
// stream every distributed run must reproduce byte for byte.
func localJSONL(t *testing.T, def destset.SweepDef) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := destset.NewJSONLObserver(&buf)
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteManifest(plan.Manifest(0, 1)); err != nil {
		t.Fatal(err)
	}
	opts := []destset.RunnerOption{destset.WithParallelism(1)}
	if def.Kind == destset.PlanKindTiming {
		r, err := def.TimingRunner(append(opts, destset.WithTimingObserver(sink.ObserveTiming))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	} else {
		r, err := def.Runner(append(opts, destset.WithObserver(sink.Observe))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serve starts a coordinator over an in-memory listener and returns it
// with an HTTP client dialing it.
func serve(t *testing.T, cfg distrib.Config) (*distrib.Coordinator, *http.Client) {
	t.Helper()
	coord, err := distrib.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := distrib.NewMemListener()
	srv := &http.Server{Handler: distrib.NewHandler(coord)}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close(); coord.Close() })
	return coord, l.Client()
}

// rawLease takes a lease over raw HTTP — the tests' stand-in for a
// worker that then dies without completing or heartbeating.
func rawLease(t *testing.T, client *http.Client, worker, plan string) distrib.LeaseReply {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"worker": worker, "plan": plan})
	resp, err := client.Post("http://coordinator/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease status = %s", resp.Status)
	}
	var reply distrib.LeaseReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	return reply
}

// TestDistributedTimingSweepByteIdenticalWithRetry is the acceptance
// check end to end: a coordinator plus two workers — with one induced
// worker failure (a leased range abandoned without heartbeats, expiring
// and re-queued) — produce JSONL output byte-identical to the same
// sweep run in one process.
func TestDistributedTimingSweepByteIdenticalWithRetry(t *testing.T) {
	def := timingDef()
	want := localJSONL(t, def)
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}

	coord, client := serve(t, distrib.Config{
		Def:      def,
		LeaseTTL: 500 * time.Millisecond,
		Logf:     t.Logf,
	})

	// Induced failure: "doomed" leases a range and dies — no heartbeat,
	// no completion. The lease must expire and the range be re-run by a
	// healthy worker.
	reply := rawLease(t, client, "doomed", plan.Fingerprint())
	if reply.Lease == nil {
		t.Fatal("doomed worker got no lease")
	}
	abandoned := *reply.Lease

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	stats := make([]distrib.WorkerStats, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = distrib.RunWorker(ctx, distrib.WorkerConfig{
				URL:          "http://coordinator",
				Client:       client,
				Name:         fmt.Sprintf("w%d", i),
				Parallelism:  1,
				PollInterval: 20 * time.Millisecond,
				Logf:         t.Logf,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	// The abandoned range was completed by a real worker, not lost.
	cells := stats[0].Cells + stats[1].Cells
	if cells != plan.Len() {
		t.Errorf("workers completed %d cells, plan has %d (abandoned lease [%d,%d) not retried?)",
			cells, plan.Len(), abandoned.Lo, abandoned.Hi)
	}
	p := coord.Progress()
	if !p.Done || p.DoneCells != plan.Len() {
		t.Errorf("progress = %+v, want done with %d cells", p, plan.Len())
	}

	var got bytes.Buffer
	if err := coord.WriteMerged(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("distributed output differs from in-process run:\n--- distributed\n%s\n--- local\n%s", got.Bytes(), want)
	}
}

// TestDistributedTraceSweepByteIdentical covers the trace-driven kind,
// whose cells stream multiple interval records, with a chunked lease
// covering several cells and a parallel worker.
func TestDistributedTraceSweepByteIdentical(t *testing.T) {
	def := traceDef()
	want := localJSONL(t, def)

	coord, client := serve(t, distrib.Config{
		Def:       def,
		ChunkSize: 3,
		LeaseTTL:  time.Second,
		Logf:      t.Logf,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
		URL:          "http://coordinator",
		Client:       client,
		Name:         "solo",
		Parallelism:  4,
		PollInterval: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := coord.WriteMerged(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("distributed trace output differs from in-process run")
	}
}

// TestWorkerNameIsEscapedInUploads: a worker name is free text, and an
// upload carries it in its query string beside the lease and the plan.
// A name holding '#' and '&' must reach the coordinator whole: the
// sweep completes through that worker, byte-identical to the local run,
// and the coordinator's log lines name the worker in full.
func TestWorkerNameIsEscapedInUploads(t *testing.T) {
	def := timingDef()
	want := localJSONL(t, def)
	const name = "w#1 &x"
	var logs bytes.Buffer
	var logMu sync.Mutex
	coord, client := serve(t, distrib.Config{
		Def:      def,
		LeaseTTL: 500 * time.Millisecond,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			defer logMu.Unlock()
			fmt.Fprintf(&logs, format+"\n", args...)
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
		URL:          "http://coordinator",
		Client:       client,
		Name:         name,
		Parallelism:  1,
		PollInterval: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := coord.WriteMerged(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("distributed output differs from the single-process run")
	}
	logMu.Lock()
	logged := logs.String()
	logMu.Unlock()
	for _, line := range []string{"-> worker " + name + " (attempt 1)", ": worker " + name + " completed cells"} {
		if !strings.Contains(logged, line) {
			t.Errorf("coordinator log holds no %q:\n%s", line, logged)
		}
	}
}

// TestCoordinatorRefusesMismatchedPlan pins the handshake contract: a
// request presenting any plan fingerprint but the coordinator's own is
// 409 Conflict, and a worker pinned to a different plan refuses locally.
func TestCoordinatorRefusesMismatchedPlan(t *testing.T) {
	_, client := serve(t, distrib.Config{Def: timingDef()})

	body, _ := json.Marshal(map[string]string{"worker": "evil", "plan": "bogus"})
	resp, err := client.Post("http://coordinator/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("mismatched-plan lease status = %s, want 409", resp.Status)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, werr := distrib.RunWorker(ctx, distrib.WorkerConfig{
		URL:        "http://coordinator",
		Client:     client,
		Name:       "pinned",
		ExpectPlan: "someotherplan",
	})
	if werr == nil || !strings.Contains(werr.Error(), "plan fingerprint mismatch") {
		t.Errorf("pinned worker error = %v, want plan fingerprint mismatch", werr)
	}
}

// testClock is a settable coordinator clock.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// cellRecords runs the def locally and returns each cell's raw JSONL
// record lines, keyed by plan index — upload bodies for driving the
// coordinator API directly.
func cellRecords(t *testing.T, def destset.SweepDef) map[int][]string {
	t.Helper()
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	index := make(map[string]int, plan.Len())
	for i, c := range plan.Cells() {
		index[fmt.Sprintf("%s|%s|%d", c.Engine, c.Workload, c.Seed)] = i
	}
	out := make(map[int][]string)
	for _, line := range strings.Split(strings.TrimSpace(string(localJSONL(t, def))), "\n") {
		var probe struct {
			Format   string `json:"format"`
			Engine   string `json:"Engine"`
			Sim      string `json:"Sim"`
			Workload string `json:"Workload"`
			Seed     uint64 `json:"Seed"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatal(err)
		}
		if probe.Format != "" {
			continue // manifest
		}
		label := probe.Engine
		if def.Kind == destset.PlanKindTiming {
			label = probe.Sim
		}
		i, ok := index[fmt.Sprintf("%s|%s|%d", label, probe.Workload, probe.Seed)]
		if !ok {
			t.Fatalf("record for unknown cell: %s", line)
		}
		out[i] = append(out[i], line)
	}
	return out
}

// TestDrainStopsGrantsButKeepsLeases pins the graceful half of a
// shutdown: after Drain the coordinator grants nothing and does not
// report done, Progress says it is draining, and a lease granted before
// the drain still heartbeats and completes.
func TestDrainStopsGrantsButKeepsLeases(t *testing.T) {
	def := timingDef()
	records := cellRecords(t, def)
	coord, err := distrib.NewCoordinator(distrib.Config{Def: def, ChunkSize: 1, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	fp := coord.Plan().Fingerprint()

	held, err := coord.Lease("w1", fp)
	if err != nil {
		t.Fatal(err)
	}
	if held.Lease == nil {
		t.Fatalf("no lease before the drain: %+v", held)
	}
	coord.Drain()
	if !coord.Progress().Draining {
		t.Error("Progress().Draining = false after Drain")
	}
	reply, err := coord.Lease("w2", fp)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Lease != nil || reply.Done || reply.Failed != "" {
		t.Errorf("Lease after Drain = %+v, want nothing granted and not done", reply)
	}

	if err := coord.Heartbeat(held.Lease.ID, "w1", fp); err != nil {
		t.Errorf("heartbeat of a lease granted before the drain: %v", err)
	}
	if cr := uploadRange(t, coord, *held.Lease, "w1", fp, records); !cr.Accepted || cr.Done {
		t.Errorf("completion of a lease granted before the drain = %+v, want accepted, sweep not done", cr)
	}
	p := coord.Progress()
	if p.DoneCells != 1 || p.Done || p.PendingCells != p.Cells-1 || !p.Draining {
		t.Errorf("progress after the completion = %+v, want 1 done, the rest pending, still draining", p)
	}
	reply, err = coord.Lease("w1", fp)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Lease != nil || reply.Done {
		t.Errorf("Lease after the completion = %+v, want nothing granted and not done", reply)
	}
}

// TestFirstCompleteWinsAfterExpiry drives the coordinator API through
// the late-completion race: a lease expires, its range is re-granted,
// and then the original worker's upload arrives first — it wins, and the
// re-run's upload is acknowledged as a duplicate and discarded.
func TestFirstCompleteWinsAfterExpiry(t *testing.T) {
	def := timingDef()
	records := cellRecords(t, def)
	clock := &testClock{now: time.Unix(1_700_000_000, 0)}
	coord, err := distrib.NewCoordinator(distrib.Config{
		Def:      def,
		LeaseTTL: time.Second,
		Now:      clock.Now,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	plan, _ := def.Plan()
	fp := plan.Fingerprint()

	reply, err := coord.Lease("slow", fp)
	if err != nil || reply.Lease == nil {
		t.Fatalf("lease = %+v, %v", reply, err)
	}
	first := *reply.Lease

	// The lease expires; the same range is re-granted to another worker.
	clock.Advance(2 * time.Second)
	reply2, err := coord.Lease("fast", fp)
	if err != nil || reply2.Lease == nil {
		t.Fatalf("re-grant = %+v, %v", reply2, err)
	}
	if reply2.Lease.Lo != first.Lo || reply2.Lease.Hi != first.Hi {
		t.Fatalf("re-grant covers [%d,%d), want the expired [%d,%d)",
			reply2.Lease.Lo, reply2.Lease.Hi, first.Lo, first.Hi)
	}

	upload := func(lease distrib.Lease, worker string) (distrib.CompleteReply, error) {
		var lines []string
		for i := lease.Lo; i < lease.Hi; i++ {
			lines = append(lines, records[i]...)
		}
		return coord.Complete(lease.ID, worker, fp, strings.NewReader(strings.Join(lines, "\n")+"\n"))
	}

	// The original (expired) worker finishes first: first complete wins.
	cr, err := upload(first, "slow")
	if err != nil || !cr.Accepted {
		t.Fatalf("late first completion = %+v, %v; want accepted", cr, err)
	}
	// The re-run finishes second: acknowledged, discarded.
	cr2, err := upload(*reply2.Lease, "fast")
	if err != nil || cr2.Accepted || !cr2.Duplicate {
		t.Fatalf("second completion = %+v, %v; want duplicate", cr2, err)
	}

	// Heartbeating the expired lease reports it gone.
	if err := coord.Heartbeat(first.ID, "slow", fp); err == nil {
		t.Error("heartbeat on a completed range should fail")
	}
}

// TestCompleteRejectsBadUploads pins upload validation: records naming
// cells outside the leased range, and uploads not covering every leased
// cell, are rejected — and the range goes back in the queue.
func TestCompleteRejectsBadUploads(t *testing.T) {
	def := timingDef()
	records := cellRecords(t, def)
	coord, err := distrib.NewCoordinator(distrib.Config{Def: def, LeaseTTL: time.Minute, ChunkSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	plan, _ := def.Plan()
	fp := plan.Fingerprint()

	reply, err := coord.Lease("w", fp)
	if err != nil || reply.Lease == nil {
		t.Fatalf("lease = %+v, %v", reply, err)
	}
	lease := *reply.Lease

	// A record from outside the leased range.
	foreign := records[lease.Hi][0]
	if _, err := coord.Complete(lease.ID, "w", fp, strings.NewReader(foreign+"\n")); err == nil ||
		!strings.Contains(err.Error(), "outside the leased range") {
		t.Errorf("foreign-record upload error = %v", err)
	}

	// The rejection re-queued the range: it can be leased again.
	reply2, err := coord.Lease("w2", fp)
	if err != nil || reply2.Lease == nil || reply2.Lease.Lo != lease.Lo {
		t.Fatalf("after rejection, re-lease = %+v, %v; want range [%d,%d)", reply2, err, lease.Lo, lease.Hi)
	}

	// Partial coverage: only one of the two leased cells.
	partial := strings.Join(records[reply2.Lease.Lo], "\n") + "\n"
	if _, err := coord.Complete(reply2.Lease.ID, "w2", fp, strings.NewReader(partial)); err == nil ||
		!strings.Contains(err.Error(), "incomplete") {
		t.Errorf("partial upload error = %v", err)
	}

	// Garbage is rejected with its line number.
	reply3, err := coord.Lease("w3", fp)
	if err != nil || reply3.Lease == nil {
		t.Fatalf("third lease = %+v, %v", reply3, err)
	}
	if _, err := coord.Complete(reply3.Lease.ID, "w3", fp, strings.NewReader("{not json}\n")); err == nil ||
		!strings.Contains(err.Error(), "line 1") {
		t.Errorf("garbage upload error = %v", err)
	}
}

// TestCompleteStatusBlamesTheRightSide: a correct upload that the
// coordinator fails to spill is the coordinator's failure and answers
// 500, while a malformed upload is the worker's and still answers 400.
func TestCompleteStatusBlamesTheRightSide(t *testing.T) {
	def := timingDef()
	records := cellRecords(t, def)
	dir := t.TempDir()
	_, client := serve(t, distrib.Config{Def: def, ChunkSize: 1, LeaseTTL: time.Minute, StateDir: dir})
	plan, _ := def.Plan()
	fp := plan.Fingerprint()
	complete := func(id, body string) int {
		t.Helper()
		u := "http://coordinator/v1/complete?" + url.Values{"lease": {id}, "worker": {"w"}, "plan": {fp}}.Encode()
		resp, err := client.Post(u, "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if err := os.RemoveAll(filepath.Join(dir, "spill")); err != nil {
		t.Fatal(err)
	}
	lease := rawLease(t, client, "w", fp).Lease
	if code := complete(lease.ID, strings.Join(records[lease.Lo], "\n")+"\n"); code != http.StatusInternalServerError {
		t.Errorf("a correct upload the coordinator cannot spill answered %d, want 500", code)
	}
	next := rawLease(t, client, "w", fp).Lease
	if code := complete(next.ID, "{not json}\n"); code != http.StatusBadRequest {
		t.Errorf("a malformed upload answered %d, want 400", code)
	}
}

// TestCompleteRefusesUploadsOutOfPlanOrder: workers upload a lease's
// lines in plan order, so a two-cell upload whose cells are swapped is
// refused as the worker's fault (400, naming the line) and re-queues
// the range, and the same lines in plan order complete it.
func TestCompleteRefusesUploadsOutOfPlanOrder(t *testing.T) {
	def := traceDef()
	records := cellRecords(t, def)
	coord, client := serve(t, distrib.Config{Def: def, ChunkSize: 2, LeaseTTL: time.Minute})
	plan, _ := def.Plan()
	fp := plan.Fingerprint()
	complete := func(lease *distrib.Lease, worker string, cells ...int) (int, string) {
		t.Helper()
		var lines []string
		for _, ci := range cells {
			lines = append(lines, records[ci]...)
		}
		u := "http://coordinator/v1/complete?" + url.Values{"lease": {lease.ID}, "worker": {worker}, "plan": {fp}}.Encode()
		resp, err := client.Post(u, "application/x-ndjson", strings.NewReader(strings.Join(lines, "\n")+"\n"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	lease := rawLease(t, client, "w", fp).Lease
	if lease == nil || lease.Hi-lease.Lo != 2 {
		t.Fatalf("lease %+v, want two cells", lease)
	}
	swappedAt := len(records[lease.Lo+1]) + 1
	code, body := complete(lease, "w", lease.Lo+1, lease.Lo)
	if code != http.StatusBadRequest || !strings.Contains(body, fmt.Sprintf("line %d", swappedAt)) ||
		!strings.Contains(body, "out of plan order") {
		t.Errorf("swapped upload answered %d %s, want 400 naming line %d", code, body, swappedAt)
	}
	again := rawLease(t, client, "w2", fp).Lease
	if again == nil || again.Lo != lease.Lo || again.Hi != lease.Hi {
		t.Fatalf("after the refusal, re-lease = %+v; want range [%d,%d)", again, lease.Lo, lease.Hi)
	}
	if code, body := complete(again, "w2", again.Lo, again.Lo+1); code != http.StatusOK {
		t.Errorf("in-order upload answered %d %s, want 200", code, body)
	}
	if p := coord.Progress(); p.DoneCells != 2 {
		t.Errorf("done cells %d after the in-order upload, want 2", p.DoneCells)
	}
}

// TestSweepFailsAfterMaxAttempts pins the retry budget: a range granted
// MaxAttempts times without a completion fails the whole sweep, and
// workers are told so.
func TestSweepFailsAfterMaxAttempts(t *testing.T) {
	def := timingDef()
	clock := &testClock{now: time.Unix(1_700_000_000, 0)}
	coord, err := distrib.NewCoordinator(distrib.Config{
		Def:         def,
		ChunkSize:   100, // one range: every grant hands out the same cells
		LeaseTTL:    time.Second,
		MaxAttempts: 2,
		Now:         clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	plan, _ := def.Plan()
	fp := plan.Fingerprint()

	for i := 0; i < 2; i++ {
		reply, err := coord.Lease("crashy", fp)
		if err != nil || reply.Lease == nil {
			t.Fatalf("grant %d = %+v, %v", i, reply, err)
		}
		clock.Advance(2 * time.Second) // let it expire
	}
	reply, err := coord.Lease("crashy", fp)
	if err != nil || reply.Failed == "" {
		t.Fatalf("post-budget lease = %+v, %v; want sweep failure", reply, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if werr := coord.Wait(ctx); werr == nil || !strings.Contains(werr.Error(), "attempts") {
		t.Errorf("Wait = %v, want max-attempts failure", werr)
	}
}

// TestWorkerWithWarmDatasetDirGeneratesNothing extends the disk-tier
// cold-start property to the worker path: after a local run has warmed a
// shared dataset directory, a cold worker process-equivalent (memory
// tier purged, same dir) resolves the coordinator's pre-announced
// datasets and executes its leases with zero trace generations — and
// still reproduces the local output byte for byte.
func TestWorkerWithWarmDatasetDirGeneratesNothing(t *testing.T) {
	defer func() {
		destset.SetDatasetDir("")
		destset.PurgeDatasets()
	}()
	if err := destset.SetDatasetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	destset.PurgeDatasets() // other tests may have warmed the keys we use

	def := destset.NewTimingSweepDef(
		[]destset.SimSpec{{Protocol: destset.ProtocolSnooping}, {Protocol: destset.ProtocolDirectory}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 400, Measure: 400}},
		destset.WithSeeds(7),
	)
	before := destset.DatasetCacheStats()
	want := localJSONL(t, def) // generates and spills to the dir
	mid := destset.DatasetCacheStats()
	if gens := mid.Generations - before.Generations; gens != 1 {
		t.Fatalf("warm run generated %d datasets, want 1", gens)
	}

	// "Cold worker": drop the memory tier, keep the disk tier.
	if n := destset.PurgeDatasets(); n != 1 {
		t.Fatalf("purged %d datasets, want 1", n)
	}

	coord, client := serve(t, distrib.Config{Def: def, LeaseTTL: 5 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	stats, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
		URL:          "http://coordinator",
		Client:       client,
		Name:         "cold",
		Parallelism:  1,
		PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Prewarmed != 1 {
		t.Errorf("worker prewarmed %d datasets, want 1 (pre-announced by the coordinator)", stats.Prewarmed)
	}
	after := destset.DatasetCacheStats()
	if gens := after.Generations - mid.Generations; gens != 0 {
		t.Errorf("cold worker generated %d datasets, want 0 (disk tier should serve them)", gens)
	}
	if hits := after.DiskHits - mid.DiskHits; hits == 0 {
		t.Error("cold worker recorded no disk hits")
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := coord.WriteMerged(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("cold-worker distributed output differs from the warm local run")
	}
}

// TestCoordinatorResumesWarmFromResultStore is the restart property:
// accepted uploads spill into the coordinator's result store, so a
// second coordinator over the same def and store pre-marks every cell
// complete, leases nothing, and writes byte-identical merged output —
// the sweep resumes warm. Covers both plan kinds.
func TestCoordinatorResumesWarmFromResultStore(t *testing.T) {
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
			plan, err := def.Plan()
			if err != nil {
				t.Fatal(err)
			}
			rs := destset.NewResultStore()

			// First run: everything computes; uploads spill into rs.
			coord1, client1 := serve(t, distrib.Config{
				Def:      def,
				LeaseTTL: 5 * time.Second,
				Results:  rs,
				Logf:     t.Logf,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			if _, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
				URL:          "http://coordinator",
				Client:       client1,
				Name:         "w1",
				Parallelism:  2,
				PollInterval: 20 * time.Millisecond,
			}); err != nil {
				t.Fatal(err)
			}
			if err := coord1.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			p1 := coord1.Progress()
			if p1.CachedCells != 0 || p1.ComputedCells != plan.Len() {
				t.Fatalf("first run progress = %+v, want 0 cached / %d computed", p1, plan.Len())
			}
			if p1.Results == nil || p1.Results.Stores == 0 {
				t.Fatalf("first run spilled nothing: %+v", p1.Results)
			}

			// Restarted coordinator, same def and store: born done.
			coord2, client2 := serve(t, distrib.Config{
				Def:     def,
				Results: rs,
				Logf:    t.Logf,
			})
			p2 := coord2.Progress()
			if !p2.Done || p2.CachedCells != plan.Len() || p2.ComputedCells != 0 {
				t.Fatalf("restarted progress = %+v, want done with %d cached / 0 computed", p2, plan.Len())
			}
			// A worker polling the warm coordinator gets no work.
			stats, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
				URL:          "http://coordinator",
				Client:       client2,
				Name:         "idle",
				PollInterval: 20 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Cells != 0 {
				t.Errorf("worker computed %d cells on a warm coordinator, want 0", stats.Cells)
			}
			if err := coord2.Wait(ctx); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := coord2.WriteMerged(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("warm-restart merged output differs from the local run:\n--- warm\n%s\n--- local\n%s", got.Bytes(), want)
			}
		})
	}
}

// TestCoordinatorLeasesOnlyStoreMisses is the incremental half of the
// restart property: with part of the plan already in the result store
// (warmed by a local runner over a subset of the specs), the
// coordinator pre-marks those cells and leases only the misses.
func TestCoordinatorLeasesOnlyStoreMisses(t *testing.T) {
	def := timingDef() // 2 sims × 1 workload × 2 seeds = 4 cells
	want := localJSONL(t, def)
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}

	// Warm only the snooping sim's 2 cells: cell fingerprints depend on
	// the cell's own coordinates, not the surrounding def, so a local
	// run over the one-sim sub-def stores records the full plan reuses.
	sub := destset.NewTimingSweepDef(
		[]destset.SimSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 300, Measure: 300}},
		destset.WithSeeds(1, 2),
	)
	rs := destset.NewResultStore()
	r, err := sub.TimingRunner(destset.WithResultStore(rs), destset.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := rs.Stats(); st.Stores != 2 {
		t.Fatalf("sub-def run stored %d cells, want 2", st.Stores)
	}

	coord, client := serve(t, distrib.Config{
		Def:      def,
		LeaseTTL: 5 * time.Second,
		Results:  rs,
		Logf:     t.Logf,
	})
	if p := coord.Progress(); p.CachedCells != 2 || p.Done {
		t.Fatalf("partial-warm progress at start = %+v, want 2 cached, not done", p)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	stats, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
		URL:          "http://coordinator",
		Client:       client,
		Name:         "miss-worker",
		Parallelism:  1,
		PollInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cells != 2 {
		t.Errorf("worker computed %d cells, want only the 2 store misses", stats.Cells)
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	p := coord.Progress()
	if p.CachedCells != 2 || p.ComputedCells != 2 || p.DoneCells != plan.Len() {
		t.Errorf("final progress = %+v, want 2 cached + 2 computed of %d", p, plan.Len())
	}
	var got bytes.Buffer
	if err := coord.WriteMerged(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("partial-warm merged output differs from the local run")
	}
}

// importedWorkload imports a small CSV trace, installs its dataset file
// under dir and returns the spec that names it.
func importedWorkload(t *testing.T, dir string) destset.WorkloadSpec {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("addr,cpu,op,pc,gap\n")
	state := uint64(0x2545f4914f6cdd1d)
	for i := 0; i < 800; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		cpu := state % 4
		addr := 0x20000 + (state>>8%96)*64
		op := "R"
		if state&0x1000 != 0 {
			op = "W"
		}
		fmt.Fprintf(&sb, "0x%x,%d,%s,0x%x,%d\n", addr, cpu, op, 0x5000+4*(state>>24%256), 120+state>>40%200)
	}
	ds, err := ingest.Import(strings.NewReader(sb.String()), ingest.FormatCSV,
		ingest.Options{Name: "distrib-import", Warm: 250})
	if err != nil {
		t.Fatal(err)
	}
	p := ds.Params()
	key := dataset.KeyOf(p, ds.Warm(), ds.Measure())
	if err := dataset.WriteFile(key.Path(dir), ds); err != nil {
		t.Fatal(err)
	}
	return destset.WorkloadSpec{Name: p.Name, Params: &p, Warm: ds.Warm(), Measure: ds.Measure()}
}

// ingestDef builds a trace-driven def over an imported CSV trace plus
// the three composed workload presets, installing the imported dataset
// file under the active dataset directory — the workload mix every
// worker must resolve identically.
func ingestDef(t *testing.T) destset.SweepDef {
	t.Helper()
	dir := destset.DatasetDir()
	if dir == "" {
		t.Fatal("ingestDef needs an active dataset directory")
	}
	specs := []destset.WorkloadSpec{importedWorkload(t, dir)}
	for _, name := range []string{"phased", "tenant-mix", "regulated"} {
		cp, err := workload.Preset(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, destset.WorkloadSpec{Name: name, Params: &cp, Warm: 400, Measure: 400})
	}
	return destset.NewTraceSweepDef(
		[]destset.EngineSpec{
			{Protocol: destset.ProtocolSnooping},
			destset.SpecForPolicy(destset.OwnerGroup),
		},
		specs,
		destset.WithSeeds(1, 2),
	)
}

// TestDistributedIngestedSweepByteIdentical is the tentpole's
// distributed acceptance check: a sweep whose workloads are an imported
// external trace and the three composed kinds, split over two workers
// via the coordinator, merges byte-identically to the in-process run —
// and the imported dataset is never regenerated, only loaded from the
// shared dataset directory.
func TestDistributedIngestedSweepByteIdentical(t *testing.T) {
	defer func() {
		destset.SetDatasetDir("")
		destset.PurgeDatasets()
	}()
	if err := destset.SetDatasetDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	destset.PurgeDatasets()

	def := ingestDef(t)
	before := destset.DatasetCacheStats()
	want := localJSONL(t, def)
	mid := destset.DatasetCacheStats()
	// 3 composed workloads × 2 seeds generate; the imported trace's two
	// seed-cells both load the one installed file.
	if gens := mid.Generations - before.Generations; gens != 6 {
		t.Fatalf("local run generated %d datasets, want 6 (imported must come from disk)", gens)
	}

	coord, client := serve(t, distrib.Config{
		Def:      def,
		LeaseTTL: 5 * time.Second,
		Logf:     t.Logf,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	destset.PurgeDatasets() // workers start cold: memory tier empty, disk tier warm
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = distrib.RunWorker(ctx, distrib.WorkerConfig{
				URL:          "http://coordinator",
				Client:       client,
				Name:         fmt.Sprintf("iw%d", i),
				Parallelism:  2,
				PollInterval: 20 * time.Millisecond,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	after := destset.DatasetCacheStats()
	if gens := after.Generations - mid.Generations; gens != 0 {
		t.Errorf("cold workers generated %d datasets, want 0 (disk tier should serve them)", gens)
	}
	var got bytes.Buffer
	if err := coord.WriteMerged(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("distributed ingested-workload output differs from in-process run")
	}
}
