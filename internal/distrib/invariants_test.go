package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"destset"
)

// raceClock is a settable coordinator clock safe for concurrent use.
type raceClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *raceClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *raceClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// recordsByCell runs the def locally at parallelism 1 and groups the
// JSONL record lines by plan cell index — upload bodies for driving the
// coordinator API.
func recordsByCell(t *testing.T, def destset.SweepDef) map[int][]string {
	t.Helper()
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := destset.NewJSONLObserver(&buf)
	r, err := def.TimingRunner(destset.WithParallelism(1), destset.WithTimingObserver(sink.ObserveTiming))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	index := make(map[string]int, plan.Len())
	for i, c := range plan.Cells() {
		index[fmt.Sprintf("%s|%s|%d", c.Engine, c.Workload, c.Seed)] = i
	}
	out := make(map[int][]string)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var probe struct {
			Sim      string `json:"Sim"`
			Workload string `json:"Workload"`
			Seed     uint64 `json:"Seed"`
		}
		if err := json.Unmarshal([]byte(line), &probe); err != nil {
			t.Fatal(err)
		}
		ci, ok := index[fmt.Sprintf("%s|%s|%d", probe.Sim, probe.Workload, probe.Seed)]
		if !ok {
			t.Fatalf("record for unknown cell: %s", line)
		}
		out[ci] = append(out[ci], line)
	}
	return out
}

// checkInvariantsLocked validates the lease-table invariants the
// concurrent lifecycle depends on: the pending queue holds each pending
// task exactly once (a double-requeue would eventually double-complete
// a range), the leased set mirrors the leased states, and the derived
// cell counters match the task states.
func checkInvariantsLocked(c *Coordinator) error {
	queued := make(map[int]int, len(c.pending))
	for _, ti := range c.pending {
		queued[ti]++
	}
	leasedCells, doneCells := 0, 0
	for ti, t := range c.tasks {
		switch t.state {
		case taskPending:
			if queued[ti] != 1 {
				return fmt.Errorf("pending task %d appears %d times in the queue", ti, queued[ti])
			}
		case taskLeased:
			if queued[ti] != 0 {
				return fmt.Errorf("leased task %d still queued %d times (double-requeue?)", ti, queued[ti])
			}
			if !c.leased[ti] {
				return fmt.Errorf("task %d is leased but missing from the leased set", ti)
			}
			leasedCells += t.hi - t.lo
		case taskDone:
			if queued[ti] != 0 {
				return fmt.Errorf("done task %d still queued %d times", ti, queued[ti])
			}
			doneCells += t.hi - t.lo
		}
	}
	for ti := range c.leased {
		if c.tasks[ti].state != taskLeased {
			return fmt.Errorf("leased set holds task %d in state %d", ti, c.tasks[ti].state)
		}
	}
	if leasedCells != c.leasedCells {
		return fmt.Errorf("leasedCells counter %d, tasks say %d", c.leasedCells, leasedCells)
	}
	if doneCells != c.doneCells {
		return fmt.Errorf("doneCells counter %d, tasks say %d", c.doneCells, doneCells)
	}
	return nil
}

// TestLeaseLifecycleRaceInvariants hammers the full lease lifecycle —
// grants, heartbeat renewals racing expiry, explicit failures,
// abandoned leases, late completions — from many goroutines while the
// clock advances concurrently, with an invariant checker running the
// whole time. Meant for -race (CI runs this package with it); the
// invariants catch logical double-requeues race mode alone would miss.
// The coordinator is durable, so every transition also exercises the
// WAL append path under contention, and the merged output is verified
// byte-identical at the end.
func TestLeaseLifecycleRaceInvariants(t *testing.T) {
	def := destset.NewTimingSweepDef(
		[]destset.SimSpec{
			{Protocol: destset.ProtocolSnooping},
			{Protocol: destset.ProtocolDirectory},
		},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 100}},
		destset.WithSeeds(1, 2, 3),
	)
	records := recordsByCell(t, def)
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	fp := plan.Fingerprint()
	clock := &raceClock{now: time.Unix(1_700_000_000, 0)}
	coord, err := NewCoordinator(Config{
		Def:         def,
		ChunkSize:   1,
		LeaseTTL:    50 * time.Millisecond,
		MaxAttempts: 10_000,
		StateDir:    t.TempDir(),
		Now:         clock.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	stop := make(chan struct{})
	var aux sync.WaitGroup
	// The clock advances and Progress drives lazy expiry, so leases are
	// constantly expiring under the workers.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clock.Advance(10 * time.Millisecond)
				coord.Progress()
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	// The invariant checker races everything.
	checks := 0
	var checkErr error
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				coord.mu.Lock()
				err := checkInvariantsLocked(coord)
				coord.mu.Unlock()
				checks++
				if err != nil && checkErr == nil {
					checkErr = err
					return
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()

	var workers sync.WaitGroup
	for w := 0; w < 8; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			name := fmt.Sprintf("w%d", w)
			for k := 0; ; k++ {
				reply, err := coord.Lease(name, fp)
				if err != nil {
					t.Errorf("%s: lease: %v", name, err)
					return
				}
				if reply.Done {
					return
				}
				if reply.Failed != "" {
					t.Errorf("%s: sweep failed: %s", name, reply.Failed)
					return
				}
				if reply.Lease == nil {
					time.Sleep(time.Millisecond)
					continue
				}
				lease := *reply.Lease
				switch k % 4 {
				case 0:
					// Abandon: no heartbeat, no completion; expiry must
					// requeue it exactly once.
					continue
				case 1:
					// Explicit failure racing expiry.
					coord.Fail(lease.ID, name, fp, "induced failure")
					continue
				case 2:
					// Heartbeats racing expiry, then a (possibly late)
					// completion.
					for h := 0; h < 3; h++ {
						coord.Heartbeat(lease.ID, name, fp)
						time.Sleep(500 * time.Microsecond)
					}
				}
				var lines []string
				for i := lease.Lo; i < lease.Hi; i++ {
					lines = append(lines, records[i]...)
				}
				if _, err := coord.Complete(lease.ID, name, fp, strings.NewReader(strings.Join(lines, "\n")+"\n")); err != nil {
					t.Errorf("%s: complete: %v", name, err)
					return
				}
			}
		}(w)
	}
	workers.Wait()
	close(stop)
	aux.Wait()
	if checkErr != nil {
		t.Fatalf("invariant violated during the race: %v", checkErr)
	}
	if checks == 0 {
		t.Fatal("invariant checker never ran")
	}

	coord.mu.Lock()
	err = checkInvariantsLocked(coord)
	coord.mu.Unlock()
	if err != nil {
		t.Fatalf("invariant violated at rest: %v", err)
	}
	var got bytes.Buffer
	if err := coord.WriteMerged(&got); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	obs := destset.NewJSONLObserver(&sink)
	obs.WriteManifest(plan.Manifest(0, 1))
	r, err := def.TimingRunner(destset.WithParallelism(1), destset.WithTimingObserver(obs.ObserveTiming))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	obs.Flush()
	if !bytes.Equal(got.Bytes(), sink.Bytes()) {
		t.Error("merged output after the race differs from the single-process run")
	}
}
