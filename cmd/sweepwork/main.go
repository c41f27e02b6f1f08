// Command sweepwork is the distributed-sweep worker: it handshakes with
// a cmd/sweepd coordinator, verifies it computes the same plan
// fingerprint from the served sweep definition, resolves the
// pre-announced datasets — zero generations against a warm -dataset-dir,
// and still zero against an empty private one: datasets missing from
// the local directory are fetched over the wire, CRC-verified on
// receipt and installed atomically — then leases cell ranges, executes
// them through the ordinary facade runners, and streams the JSONL
// observation records back — heartbeating so a live lease never expires
// and a dead worker's lease does.
//
// Wire fetches are peer-to-peer first: each worker with a -dataset-dir
// serves its installed datasets read-only on -peer-addr and announces
// what it holds, and fetches try up to two coordinator-hinted peer
// holders before falling back to the coordinator — so the coordinator
// uplink serves each dataset roughly once per fleet, not once per
// worker. Peers are untrusted: every install re-validates the payload,
// and a peer's bytes must also hash to the sha256 the coordinator
// returns with its holder hints — a check a forged file cannot pass by
// recomputing its own checksum — so a corrupt or lying peer costs one
// retried attempt, nothing more. -no-peer opts a worker out of the
// fabric entirely.
//
// Usage:
//
//	sweepwork -coordinator http://host:port [-name w1] [-parallel N]
//	          [-dataset-dir path] [-plan fingerprint] [-poll 300ms]
//	          [-peer-addr 127.0.0.1:0] [-no-peer]
//
// -plan pins the exact sweep this worker will execute; a coordinator
// serving any other plan is refused. -hold delays each lease's execution
// while heartbeats keep it alive — a failure-injection knob: kill a
// holding worker and its lease dies with it, exercising the
// coordinator's expiry-and-retry path (the CI smoke job does exactly
// that). The worker exits 0 when the coordinator declares the sweep
// done, 1 on errors, 130 on Ctrl-C. Exit 1 also covers a coordinator
// that went away before this worker observed completion (e.g. a stale
// worker outliving sweepd's -linger window) — judge sweep health by the
// coordinator's exit code and output, not by individual workers'.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"destset"
	"destset/internal/distrib"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "coordinator base URL (required), e.g. http://127.0.0.1:7607")
		name        = flag.String("name", "", "worker name (default host-pid)")
		parallel    = flag.Int("parallel", 0, "max concurrent cells per lease (0 = all CPUs)")
		dataDir     = flag.String("dataset-dir", "", "persistent on-disk dataset cache shared across the fleet")
		planPin     = flag.String("plan", "", "refuse coordinators serving any other plan fingerprint")
		poll        = flag.Duration("poll", 300*time.Millisecond, "idle wait between lease requests")
		hold        = flag.Duration("hold", 0, "hold each lease this long before running it (failure-injection knob)")
		fetchHold   = flag.Duration("fetch-hold", 0, "hold each dataset wire fetch this long before installing it (failure-injection knob)")
		noPrewarm   = flag.Bool("no-prewarm", false, "skip resolving the coordinator's pre-announced datasets")
		peerAddr    = flag.String("peer-addr", "127.0.0.1:0", "address the read-only peer dataset server listens on (needs -dataset-dir; empty disables serving)")
		noPeer      = flag.Bool("no-peer", false, "opt out of the peer dataset fabric: serve nothing, fetch only from the coordinator")
		quiet       = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "sweepwork: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "sweepwork:", err)
		os.Exit(1)
	}

	if *coordinator == "" {
		fail(fmt.Errorf("-coordinator is required"))
	}
	if *dataDir != "" {
		if err := destset.SetDatasetDir(*dataDir); err != nil {
			fail(err)
		}
	}
	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "sweepwork: "+format+"\n", args...)
		}
	}
	stats, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
		URL:          *coordinator,
		Name:         *name,
		Parallelism:  *parallel,
		ExpectPlan:   *planPin,
		PollInterval: *poll,
		Hold:         *hold,
		FetchHold:    *fetchHold,
		NoPrewarm:    *noPrewarm,
		PeerAddr:     *peerAddr,
		NoPeer:       *noPeer,
		Logf:         logf,
	})
	if err != nil {
		fail(err)
	}
	ds := destset.DatasetCacheStats()
	logf("done: %d lease(s), %d cell(s), %d dataset(s) prewarmed, %d fetched (%d bytes, %d from peers), %d peer bytes served, dataset generations %d",
		stats.Leases, stats.Cells, stats.Prewarmed, stats.Fetched, stats.FetchedBytes, stats.FetchedFromPeers,
		stats.PeerServedBytes, ds.Generations)
}
