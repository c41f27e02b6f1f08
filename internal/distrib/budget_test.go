package distrib_test

// Allocation budgets for the two wire paths a worker drives: a dataset
// fetch and install, and a lease with its single-cell completion. Each
// bound is 1.2x the steady-state cost per operation measured when the
// budget was set.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"destset"
	"destset/internal/distrib"
	"destset/internal/memtest"
)

// TestDatasetFetchAllocBudget pins what a mountless worker allocates to
// fetch one dataset from GET /v1/dataset/{key} and install it with full
// receipt validation: the 1.6 MB OLTP 20k+20k file, measured at 1.75 MB
// and 181 allocations per fetch.
func TestDatasetFetchAllocBudget(t *testing.T) {
	const maxBytes, maxAllocs = 1.2 * 1.75e6, 1.2 * 181
	def := destset.NewTimingSweepDef(
		[]destset.SimSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 20_000, Measure: 20_000}},
		destset.WithSeeds(1),
	)
	datasets, err := def.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	sd := datasets[0]
	key, err := sd.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	serveDir := t.TempDir()
	if _, err := sd.SpillTo(serveDir); err != nil {
		t.Fatal(err)
	}
	_, client := serve(t, distrib.Config{Def: def, LeaseTTL: time.Minute, DatasetDir: serveDir})
	installDir := t.TempDir()

	gotB, gotAllocs := memtest.PerRun(10, func() {
		resp, err := client.Get("http://coordinator/v1/dataset/" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fetch status %d", resp.StatusCode)
		}
		if _, err := sd.InstallTo(installDir, resp.Body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("fetch and install: %.0f B, %.1f allocs", gotB, gotAllocs)
	if gotB > maxBytes || gotAllocs > maxAllocs {
		t.Errorf("fetch and install allocates %.0f B in %.1f allocs, budget %.0f B in %.0f",
			gotB, gotAllocs, maxBytes, maxAllocs)
	}
}

// TestLeaseDispatchAllocBudget pins the coordinator's protocol hot path,
// one lease grant plus one single-cell record upload over HTTP, measured
// at 156 KB and 262 allocations per round trip.
func TestLeaseDispatchAllocBudget(t *testing.T) {
	maxBytes, maxAllocs := 1.2*156e3, 1.2*262
	if memtest.Race {
		// net/http takes a 32 KB copy buffer from a sync.Pool for each
		// request body; with a quarter of the Puts dropped, the round
		// trip measures 192 KB over 300 runs.
		maxBytes = 1.2 * 192e3
	}
	const runs = 50
	seeds := make([]uint64, runs+1) // one cell per round trip, warm-up included
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	def := destset.NewTimingSweepDef(
		[]destset.SimSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 100}},
		destset.WithSeeds(seeds...),
	)
	coord, client := serve(t, distrib.Config{Def: def, LeaseTTL: time.Minute})
	plan := coord.Plan()
	leaseBody, err := json.Marshal(map[string]string{"worker": "budget", "plan": plan.Fingerprint()})
	if err != nil {
		t.Fatal(err)
	}
	completeURL := "http://coordinator/v1/complete?lease=%s&worker=budget&plan=" + plan.Fingerprint()

	gotB, gotAllocs := memtest.PerRun(runs, func() {
		resp, err := client.Post("http://coordinator/v1/lease", "application/json", bytes.NewReader(leaseBody))
		if err != nil {
			t.Fatal(err)
		}
		var reply distrib.LeaseReply
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if reply.Lease == nil {
			t.Fatalf("no lease (reply %+v)", reply)
		}
		cell := plan.Cell(reply.Lease.Lo)
		rec := fmt.Sprintf("{\"Sim\":%q,\"Workload\":%q,\"Seed\":%d}\n", cell.Engine, cell.Workload, cell.Seed)
		resp, err = client.Post(fmt.Sprintf(completeURL, reply.Lease.ID), "application/x-ndjson", strings.NewReader(rec))
		if err != nil {
			t.Fatal(err)
		}
		var cr distrib.CompleteReply
		err = json.NewDecoder(resp.Body).Decode(&cr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !cr.Accepted {
			t.Fatalf("completion not accepted (%+v)", cr)
		}
	})
	t.Logf("lease and complete: %.0f B, %.1f allocs", gotB, gotAllocs)
	if gotB > maxBytes || gotAllocs > maxAllocs {
		t.Errorf("lease and complete allocates %.0f B in %.1f allocs, budget %.0f B in %.0f",
			gotB, gotAllocs, maxBytes, maxAllocs)
	}
}
