// Command sweepd is the distributed-sweep coordinator: it loads a sweep
// definition, computes the plan, and serves the internal/distrib
// HTTP/JSON protocol — workers handshake against the plan fingerprint,
// lease cell ranges with deadlines, heartbeat, and stream JSONL
// observation records back; expired or failed leases are re-queued to
// other workers. When every cell is complete the merged observation
// stream — byte-identical to the same sweep run in one process with
// -json -parallel 1 — is written to -o.
//
// Usage:
//
//	sweepd -def sweep.json [-addr host:port] [-o merged.jsonl]
//	sweepd -fig7 [-warm N] [-misses N] [-seed S] [-workloads a,b]
//	       [-protocols ...] [-addr host:port] [-o merged.jsonl]
//	       [-result-dir path]
//
// The sweep comes either from -def (a destset.SweepDef JSON file, trace
// or timing kind) or from one figure flag mirroring the local CLIs:
// -fig5 is cmd/traceeval's Figure 5 trace sweep, -fig7/-fig8 are
// cmd/timing's timing sweeps — with the same -warm/-misses/-seed/
// -workloads/-protocols flags, so the coordinator's plan fingerprint
// matches the local run's and outputs diff byte-identical.
//
// -result-dir attaches a persistent result store: cells the store can
// already serve are pre-marked complete and never leased — a restarted
// sweep resumes warm — and every accepted upload spills back into the
// store. GET /v1/progress reports cache-served vs computed cell counts
// and the store's hit/miss counters.
//
// -dataset-dir names the dataset files the coordinator serves to
// workers fetching over the wire (GET /v1/dataset/{key}): point it at a
// warm directory and serving is a plain file stream; missing files are
// generated and spilled on first fetch. Workers with their own (cold,
// private) -dataset-dir fetch every announced dataset, verify the CRC
// on receipt, and cold-start with zero generations and zero shared
// mounts. GET /v1/progress reports dataset_bytes_served.
//
// Workers (cmd/sweepwork) find the coordinator at -addr. -chunk sets
// cells per lease, -lease-ttl the heartbeat deadline, -max-attempts the
// retry budget per range. After the output is written the coordinator
// lingers for -linger, still answering "done", so idle workers observe
// completion and exit cleanly.
//
// -state-dir makes the coordinator crash-safe: it holds one log,
// wal.log, a run of result records (the -result-dir file format) that
// opens with the lease table as the coordinator started and appends
// every grant, expiry, failure and completion after it, and a spill/
// directory of accepted uploads, one result record per completed range
// at the address its range determines. A coordinator killed mid-sweep —
// even with kill -9 — restarts over the same -state-dir, replays its
// log, re-adopts completed ranges whose spills are still there and
// check out without re-leasing them, requeues whatever was in flight,
// and produces byte-identical output. Without -state-dir the
// coordinator writes the same state to a private temp dir that it
// removes on exit, so a crash loses progress (unless -result-dir caches
// it).
//
// Ctrl-C cancels the run; the output file is written atomically
// (temp + rename), so an interrupted coordinator leaves no torn file.
// SIGTERM drains instead: the coordinator stops granting leases,
// reports progress, and exits 0 so a later sweepd over the same
// -state-dir picks up exactly where it stopped.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"destset"
	"destset/internal/atomicfile"
	"destset/internal/distrib"
	"destset/internal/experiments"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7607", "listen address for the worker protocol")
		defPath     = flag.String("def", "", "sweep definition JSON file (destset.SweepDef)")
		fig5        = flag.Bool("fig5", false, "serve the Figure 5 trace-driven sweep")
		fig7        = flag.Bool("fig7", false, "serve the Figure 7 timing sweep (simple CPU model)")
		fig8        = flag.Bool("fig8", false, "serve the Figure 8 timing sweep (detailed CPU model)")
		warm        = flag.Int("warm", 0, "warmup misses per workload (0 = figure default)")
		misses      = flag.Int("misses", 0, "measured misses per workload (0 = figure default)")
		seed        = flag.Uint64("seed", 1, "workload generation seed")
		workloads   = flag.String("workloads", "", "comma-separated workload subset")
		protocols   = flag.String("protocols", "", "comma-separated protocol subset (timing figures)")
		out         = flag.String("o", "", "merged JSONL output file (default stdout)")
		chunk       = flag.Int("chunk", 1, "plan cells per lease")
		leaseTTL    = flag.Duration("lease-ttl", 30*time.Second, "lease deadline without a heartbeat")
		maxAttempts = flag.Int("max-attempts", 5, "grants per cell range before the sweep fails")
		linger      = flag.Duration("linger", 3*time.Second, "how long to keep answering workers after the output is written")
		resultDir   = flag.String("result-dir", "", "persistent result store: known cells are pre-marked complete, accepted uploads spill back")
		stateDir    = flag.String("state-dir", "", "crash-safe coordinator state: the lease log and spilled uploads; restart with the same dir to resume (default: a private temp dir, removed on exit)")
		dataDir     = flag.String("dataset-dir", "", "dataset files served to workers over GET /v1/dataset/{key}; missing ones are generated and spilled here on first fetch")
		quiet       = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var coord *distrib.Coordinator
	fail := func(err error) {
		// os.Exit skips deferred calls, so release the coordinator's state
		// first: without -state-dir it is a temp dir that Close removes.
		if coord != nil {
			coord.Close()
		}
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "sweepd: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}

	def, err := loadDef(*defPath, *fig5, *fig7, *fig8, *warm, *misses, *seed, *workloads, *protocols)
	if err != nil {
		fail(err)
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "sweepd: "+format+"\n", args...)
		}
	}
	var results *destset.ResultStore
	if *resultDir != "" {
		if err := destset.SetResultDir(*resultDir); err != nil {
			fail(err)
		}
		results = destset.SharedResults()
	}
	coord, err = distrib.NewCoordinator(distrib.Config{
		Def:         def,
		ChunkSize:   *chunk,
		LeaseTTL:    *leaseTTL,
		MaxAttempts: *maxAttempts,
		StateDir:    *stateDir,
		DatasetDir:  *dataDir,
		Logf:        logf,
		Results:     results,
	})
	if err != nil {
		fail(err)
	}
	defer coord.Close()

	// SIGTERM drains: stop granting, report where the sweep stands, and
	// exit 0 — the log already holds every transition, so a later sweepd
	// over the same -state-dir resumes from exactly this point. Ctrl-C
	// (above) stays the hard cancel.
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGTERM)
	go func() {
		<-term
		coord.Drain()
		p := coord.Progress()
		if *stateDir != "" {
			fmt.Fprintf(os.Stderr, "sweepd: drained: %d/%d cells done (%d leased, %d pending); resume with -state-dir %s\n",
				p.DoneCells, p.Cells, p.LeasedCells, p.PendingCells, *stateDir)
		} else {
			fmt.Fprintf(os.Stderr, "sweepd: drained: %d/%d cells done (%d leased, %d pending); no -state-dir, progress is not resumable\n",
				p.DoneCells, p.Cells, p.LeasedCells, p.PendingCells)
		}
		coord.Close()
		os.Exit(0)
	}()

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	info := coord.Info()
	fmt.Fprintf(os.Stderr, "sweepd: serving plan %s (%s, %d cells in %d ranges) at http://%s\n",
		info.Plan, info.Kind, info.Cells, info.Tasks, l.Addr())
	srv := &http.Server{Handler: distrib.NewHandler(coord)}
	go srv.Serve(l)
	defer srv.Close()

	if err := coord.Wait(ctx); err != nil {
		fail(err)
	}
	if err := writeMerged(coord, *out); err != nil {
		fail(err)
	}
	logf("merged output written to %s; lingering %s for workers to observe completion", outName(*out), *linger)
	select {
	case <-ctx.Done():
	case <-time.After(*linger):
	}
}

func outName(out string) string {
	if out == "" {
		return "stdout"
	}
	return out
}

// loadDef resolves the sweep definition from -def or one figure flag.
func loadDef(defPath string, fig5, fig7, fig8 bool, warm, misses int, seed uint64, workloads, protocols string) (destset.SweepDef, error) {
	selected := 0
	for _, b := range []bool{defPath != "", fig5, fig7, fig8} {
		if b {
			selected++
		}
	}
	if selected != 1 {
		return destset.SweepDef{}, fmt.Errorf("select exactly one sweep: -def file, -fig5, -fig7 or -fig8")
	}
	if defPath != "" {
		raw, err := os.ReadFile(defPath)
		if err != nil {
			return destset.SweepDef{}, err
		}
		var def destset.SweepDef
		if err := json.Unmarshal(raw, &def); err != nil {
			return destset.SweepDef{}, fmt.Errorf("decoding %s: %w", defPath, err)
		}
		return def, def.Validate()
	}
	opt := experiments.DefaultOptions()
	opt.Seed = seed
	if workloads != "" {
		opt.Workloads = strings.Split(workloads, ",")
	}
	if protocols != "" {
		opt.Protocols = strings.Split(protocols, ",")
	}
	if fig5 {
		if warm != 0 {
			opt.WarmMisses = warm
		}
		if misses != 0 {
			opt.Misses = misses
		}
		return experiments.TradeoffSweepDef(opt)
	}
	if warm != 0 {
		opt.TimedWarmMisses = warm
	}
	if misses != 0 {
		opt.TimedMisses = misses
	}
	model := destset.SimpleCPU
	if fig8 {
		model = destset.DetailedCPU
	}
	return experiments.TimingSweepDef(opt, model)
}

// writeMerged writes the merged observation stream: atomically
// (temp + rename, see internal/atomicfile) when out names a file,
// directly when it is stdout.
func writeMerged(coord *distrib.Coordinator, out string) error {
	if out == "" {
		return coord.WriteMerged(os.Stdout)
	}
	return atomicfile.Write(nil, out, func(f *os.File) error {
		return coord.WriteMerged(f)
	})
}
