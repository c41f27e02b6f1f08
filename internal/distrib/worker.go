package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"destset"
	"destset/internal/sweep"
)

// WorkerConfig tunes RunWorker.
type WorkerConfig struct {
	// URL is the coordinator's base URL (e.g. "http://127.0.0.1:7607").
	URL string
	// Client overrides the HTTP client (tests dial in-memory listeners
	// through it); nil uses a fresh default client.
	Client *http.Client
	// Name identifies the worker in leases and logs; empty derives
	// "host-pid".
	Name string
	// Parallelism caps concurrent cells within one lease (and the
	// dataset prewarm); <= 0 means GOMAXPROCS.
	Parallelism int
	// ExpectPlan, when set, pins the plan fingerprint this worker is
	// willing to execute: a coordinator serving anything else is refused
	// locally before any work starts.
	ExpectPlan string
	// PollInterval is the idle wait between lease requests when nothing
	// is grantable; <= 0 means 300ms.
	PollInterval time.Duration
	// RetryBase and RetryMax shape the jittered exponential backoff
	// applied when the coordinator is unreachable: the first retry waits
	// around RetryBase, doubling up to RetryMax. <= 0 means 200ms / 5s.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Hold delays each lease's execution while heartbeats keep it alive
	// — a failure-injection knob: kill the worker during the hold and
	// the lease dies with it, exercising expiry and retry.
	Hold time.Duration
	// FetchHold delays each dataset wire fetch between receiving the
	// response and installing it — the fetch path's failure-injection
	// knob: kill the worker during the hold and it dies genuinely
	// mid-fetch, with the transfer open and nothing installed.
	FetchHold time.Duration
	// NoPeer is kept so that existing callers compile: every dataset
	// fetch goes to the coordinator.
	//
	// Deprecated: has no effect.
	NoPeer bool
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// WorkerStats summarizes one worker's run.
type WorkerStats struct {
	// Leases and Cells count completed (accepted or duplicate) leases
	// and the cells they covered.
	Leases, Cells int
	// Prewarmed counts pre-announced datasets resolved before leasing.
	Prewarmed int
	// Fetched and FetchedBytes count datasets pulled from the
	// coordinator during prewarm — datasets found neither in the process
	// cache nor in the local dataset directory.
	Fetched      int
	FetchedBytes int64
}

// maxNetFailures bounds consecutive unreachable-coordinator retries
// before the worker gives up.
const maxNetFailures = 10

// maxUploadAttempts bounds retries of one completion upload on network
// failure; past it the lease is left to expire and re-run elsewhere.
const maxUploadAttempts = 3

// maxFetchAttempts bounds retries of one dataset wire fetch. Receipt
// validation failures (truncated body, CRC mismatch) retry like network
// failures: both look the same after a dropped connection, and a
// coordinator restart mid-transfer heals on the next attempt.
const maxFetchAttempts = 4

// errNoRetry marks failures that asking again cannot heal — a
// coordinator that does not know a dataset key at all (404: version
// skew or a foreign sweep) or that serves another plan (409). retry
// gives up on them at once instead of burning its attempt budget on
// backoff sleeps.
var errNoRetry = errors.New("distrib: permanent failure")

// backoff produces jittered exponential retry delays: each delay is
// drawn from [cur/2, 3·cur/2) — the jitter keeps a fleet that lost its
// coordinator from stampeding back in lockstep — and cur doubles per
// retry up to max. Each retry loop starts a new one at the base delay.
type backoff struct {
	base, max, cur time.Duration
}

func (b *backoff) next() time.Duration {
	if b.cur <= 0 {
		b.cur = b.base
	}
	d := b.cur/2 + rand.N(b.cur)
	b.cur *= 2
	if b.cur > b.max {
		b.cur = b.max
	}
	return d
}

// retry runs op until it succeeds, at most attempts times, sleeping a
// jittered backoff between tries and logging each retry. It stops early
// when ctx ends (returning ctx's error) or op's error is marked
// errNoRetry; otherwise its error names what was being done and wraps
// op's last error.
func (w *worker) retry(ctx context.Context, attempts int, what string, op func() error) error {
	bo := backoff{base: w.cfg.RetryBase, max: w.cfg.RetryMax}
	for attempt := 1; ; attempt++ {
		err := op()
		switch {
		case err == nil:
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, errNoRetry):
			return fmt.Errorf("distrib: %s: %w", what, err)
		case attempt == attempts:
			return fmt.Errorf("distrib: %s after %d attempts: %w", what, attempts, err)
		}
		delay := bo.next()
		w.logf("worker %s: %s: attempt %d/%d failed (%v); retrying in %s",
			w.name, what, attempt, attempts, err, delay.Round(time.Millisecond))
		if !sleepCtx(ctx, delay) {
			return ctx.Err()
		}
	}
}

// worker is one running RunWorker invocation.
type worker struct {
	cfg    WorkerConfig
	client *http.Client
	base   string
	name   string
	info   SweepInfo
	planFP string
	stats  WorkerStats
}

// RunWorker executes sweep cells for a coordinator until the sweep
// completes: handshake, dataset prewarm, then a lease loop —
// lease a cell range, run it through the ordinary facade runner with
// heartbeats keeping the lease alive, and stream the JSONL observation
// records back. Cell execution errors are reported (the coordinator
// re-queues the range) and the loop continues; the worker returns when
// the coordinator declares the sweep done or failed, when ctx ends, or
// when the coordinator stays unreachable.
func RunWorker(ctx context.Context, cfg WorkerConfig) (WorkerStats, error) {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 300 * time.Millisecond
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 200 * time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 5 * time.Second
	}
	if cfg.RetryMax < cfg.RetryBase {
		cfg.RetryMax = cfg.RetryBase
	}
	w := &worker{
		cfg:    cfg,
		client: cfg.Client,
		base:   strings.TrimRight(cfg.URL, "/"),
		name:   cfg.Name,
	}
	if w.client == nil {
		w.client = &http.Client{}
	}
	if w.name == "" {
		host, _ := os.Hostname()
		w.name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if err := w.handshake(ctx); err != nil {
		return w.stats, err
	}
	if err := w.prewarm(ctx); err != nil {
		return w.stats, err
	}
	err := w.leaseLoop(ctx)
	return w.stats, err
}

// logf emits one progress line when a logger is configured.
func (w *worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// handshake fetches the sweep, rebuilds its plan locally and verifies
// both sides agree on the fingerprint — the worker-side half of the
// mismatch refusal (the coordinator re-checks the presented fingerprint
// on every later request).
func (w *worker) handshake(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/sweep", nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("distrib: reaching coordinator: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("distrib: handshake: %s", httpError(resp))
	}
	if err := json.NewDecoder(resp.Body).Decode(&w.info); err != nil {
		return fmt.Errorf("distrib: decoding sweep info: %w", err)
	}
	plan, err := w.info.Def.Plan()
	if err != nil {
		return fmt.Errorf("distrib: rebuilding plan from coordinator def: %w", err)
	}
	w.planFP = plan.Fingerprint()
	if w.planFP != w.info.Plan {
		return fmt.Errorf("%w: coordinator announces %q, this worker computes %q from the same def (version skew?)",
			ErrPlanMismatch, w.info.Plan, w.planFP)
	}
	if w.cfg.ExpectPlan != "" && w.cfg.ExpectPlan != w.planFP {
		return fmt.Errorf("%w: pinned to %q, coordinator serves %q", ErrPlanMismatch, w.cfg.ExpectPlan, w.planFP)
	}
	w.logf("worker %s: joined sweep %s (%s, %d cells)", w.name, w.planFP, w.info.Kind, w.info.Cells)
	return nil
}

// prewarm resolves the coordinator's pre-announced datasets through the
// process-wide tiered store before any lease is taken: a memory hit,
// else a local dataset-dir load, else — when a local dataset directory
// is configured — a wire fetch from the coordinator, installed
// atomically after full receipt validation and then loaded like any
// local file. A local file counts only if it loads as its key, so a
// torn one is fetched again rather than regenerated. Against a warm
// shared directory every dataset is a disk load; with empty private
// directories the whole fleet still starts without a single generation,
// because the bytes come over the wire. Without a local directory there
// is nowhere to install, so missing datasets generate exactly as before.
// The coordinator announces each content key once, so no two prewarm
// goroutines fetch the same dataset.
func (w *worker) prewarm(ctx context.Context) error {
	if len(w.info.Datasets) == 0 {
		return nil
	}
	datasets := w.info.Datasets
	// The dataset half of the handshake: every locally-derived content
	// key must be one the coordinator announced, so two sides that
	// render a workload's identity differently (version skew) refuse
	// before any bytes move.
	announced := make(map[string]bool, len(w.info.DatasetKeys))
	for _, k := range w.info.DatasetKeys {
		announced[k] = true
	}
	keys := make([]string, len(datasets))
	for i, sd := range datasets {
		key, err := sd.ContentKey()
		if err != nil {
			return fmt.Errorf("distrib: prewarming datasets: %w", err)
		}
		if len(announced) > 0 && !announced[key] {
			return fmt.Errorf("%w: dataset %d resolves to content key %s, which the coordinator did not announce (version skew?)",
				ErrPlanMismatch, i, key)
		}
		keys[i] = key
	}
	dir := destset.DatasetDir()
	fetched := make([]int64, len(datasets)) // bytes fetched per dataset
	err := sweep.ForEach(ctx, len(datasets), w.cfg.Parallelism, func(i int) error {
		sd := datasets[i]
		if dir != "" && !sd.Cached() && !sd.Stored(dir) {
			n, err := w.fetchDataset(ctx, sd, keys[i], dir)
			if err != nil {
				return err
			}
			fetched[i] = n
		}
		return sd.Prewarm()
	})
	if err != nil {
		return fmt.Errorf("distrib: prewarming datasets: %w", err)
	}
	w.stats.Prewarmed = len(datasets)
	for _, n := range fetched {
		if n > 0 {
			w.stats.Fetched++
			w.stats.FetchedBytes += n
		}
	}
	if w.stats.Fetched > 0 {
		w.logf("worker %s: fetched %d datasets (%d bytes)", w.name, w.stats.Fetched, w.stats.FetchedBytes)
	}
	w.logf("worker %s: resolved %d pre-announced dataset(s)", w.name, len(datasets))
	return nil
}

// fetchDataset pulls one dataset from the coordinator through retry:
// transfer and validation failures alike retry — a truncated body and a
// coordinator bounced mid-transfer both heal the same way, by asking
// again. A coordinator that does not know the key at all fails fast
// instead: no amount of backoff teaches it the key.
func (w *worker) fetchDataset(ctx context.Context, sd destset.SweepDataset, key, dir string) (n int64, err error) {
	err = w.retry(ctx, maxFetchAttempts, "fetching dataset "+key, func() (err error) {
		n, err = w.fetchOnce(ctx, sd, key, dir)
		return err
	})
	if err != nil {
		return 0, err
	}
	w.logf("worker %s: dataset %s: fetched %d bytes", w.name, key, n)
	return n, nil
}

// fetchOnce is one fetch attempt: GET the content-addressed bytes and
// install them under dir (validated, temp + rename) only after the
// whole body checks out, so a corrupt stream installs nothing and costs
// one attempt. A 404 means the coordinator does not know the key at
// all (its vanished-file case is 503), which is permanent.
func (w *worker) fetchOnce(ctx context.Context, sd destset.SweepDataset, key, dir string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/dataset/"+key, nil)
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode == http.StatusNotFound {
			return 0, fmt.Errorf("%w: /v1/dataset/%s: %s", errNoRetry, key, httpError(resp))
		}
		return 0, fmt.Errorf("distrib: /v1/dataset/%s: %s", key, httpError(resp))
	}
	if w.cfg.FetchHold > 0 {
		w.logf("worker %s: dataset %s: holding fetch for %s", w.name, key, w.cfg.FetchHold)
		if !sleepCtx(ctx, w.cfg.FetchHold) {
			return 0, ctx.Err()
		}
	}
	return sd.InstallTo(dir, resp.Body)
}

// leaseLoop leases, executes and uploads ranges until done. Failures to
// reach the coordinator retry under jittered exponential backoff up to
// maxNetFailures in a row; a coordinator serving another plan ends the
// worker at once.
func (w *worker) leaseLoop(ctx context.Context) error {
	for {
		var reply LeaseReply
		err := w.retry(ctx, maxNetFailures, "requesting a lease", func() error {
			reply = LeaseReply{}
			status, err := w.postJSON(ctx, "/v1/lease", workerRequest{Worker: w.name, Plan: w.planFP}, &reply)
			if status == http.StatusConflict {
				return fmt.Errorf("%w: %w", errNoRetry, err)
			}
			return err
		})
		switch {
		case err != nil:
			return err
		case reply.Failed != "":
			return fmt.Errorf("distrib: coordinator reports sweep failed: %s", reply.Failed)
		case reply.Done:
			w.logf("worker %s: sweep done (%d leases, %d cells)", w.name, w.stats.Leases, w.stats.Cells)
			return nil
		case reply.Lease == nil:
			if !sleepCtx(ctx, w.cfg.PollInterval) {
				return ctx.Err()
			}
		default:
			if err := w.runLease(ctx, *reply.Lease); err != nil {
				return err
			}
		}
	}
}

// runLease executes one leased cell range and uploads its records.
// Cell failures are reported to the coordinator and are not fatal to the
// worker; only ctx cancellation propagates.
func (w *worker) runLease(ctx context.Context, lease Lease) error {
	leaseCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Heartbeats keep the lease alive for as long as this worker is
	// actually working it — through the hold, the run and the upload. A
	// heartbeat learning the lease is gone cancels the run: someone else
	// owns the range now.
	ttl := time.Duration(lease.TTLMs) * time.Millisecond
	hbEvery := ttl / 3
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	go func() {
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-t.C:
				status, err := w.postJSON(leaseCtx, "/v1/heartbeat",
					workerRequest{Worker: w.name, Plan: w.planFP, Lease: lease.ID}, nil)
				if err != nil && (status == http.StatusGone || status == http.StatusNotFound || status == http.StatusConflict) {
					w.logf("worker %s: %s: lease lost (%v); abandoning", w.name, lease.ID, err)
					cancel()
					return
				}
			}
		}
	}()

	if w.cfg.Hold > 0 {
		w.logf("worker %s: %s: holding cells [%d,%d) for %s", w.name, lease.ID, lease.Lo, lease.Hi, w.cfg.Hold)
		if !sleepCtx(leaseCtx, w.cfg.Hold) {
			return ctx.Err()
		}
	}

	indices := make([]int, 0, lease.Hi-lease.Lo)
	for i := lease.Lo; i < lease.Hi; i++ {
		indices = append(indices, i)
	}
	var buf bytes.Buffer
	sink := destset.NewJSONLObserver(&buf)
	runErr := w.runCells(leaseCtx, indices, sink)
	if runErr == nil {
		runErr = sink.Flush()
	}
	if runErr != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if leaseCtx.Err() != nil {
			// Lease lost mid-run; the range is already someone else's.
			return nil
		}
		w.logf("worker %s: %s: cells [%d,%d) failed: %v", w.name, lease.ID, lease.Lo, lease.Hi, runErr)
		w.postJSON(ctx, "/v1/fail", workerRequest{
			Worker: w.name, Plan: w.planFP, Lease: lease.ID, Error: runErr.Error(),
		}, nil)
		return nil
	}

	// Streaming shard upload: the records ride the request body, which
	// the coordinator attributes to cells as it reads. Network failures
	// retry under backoff while heartbeats keep the lease alive; the
	// body is replayable, so each attempt re-sends identical bytes. Past
	// the last attempt, or once the lease is lost, the range is left to
	// expire and re-run elsewhere.
	query := url.Values{"lease": {lease.ID}, "worker": {w.name}, "plan": {w.planFP}}
	var resp *http.Response
	err := w.retry(leaseCtx, maxUploadAttempts, "uploading "+lease.ID, func() error {
		req, err := http.NewRequestWithContext(leaseCtx, http.MethodPost, w.base+"/v1/complete?"+query.Encode(), bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err = w.client.Do(req)
		return err
	})
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if leaseCtx.Err() == nil {
			w.logf("worker %s: %v", w.name, err)
		}
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		w.logf("worker %s: %s: upload refused: %s", w.name, lease.ID, httpError(resp))
		return nil
	}
	var reply CompleteReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return fmt.Errorf("distrib: decoding complete reply: %w", err)
	}
	w.stats.Leases++
	w.stats.Cells += lease.Hi - lease.Lo
	if reply.Duplicate {
		w.logf("worker %s: %s: cells [%d,%d) were already completed elsewhere", w.name, lease.ID, lease.Lo, lease.Hi)
	} else {
		w.logf("worker %s: %s: completed cells [%d,%d) (%d cells done coordinator-wide)",
			w.name, lease.ID, lease.Lo, lease.Hi, reply.DoneCells)
	}
	return nil
}

// runCells executes the leased plan indices through the facade runner of
// the sweep's kind, streaming observations into sink.
func (w *worker) runCells(ctx context.Context, indices []int, sink *destset.JSONLObserver) error {
	opts := []destset.RunnerOption{
		destset.WithCells(indices),
		destset.WithParallelism(w.cfg.Parallelism),
	}
	if w.info.Kind == destset.PlanKindTiming {
		r, err := w.info.Def.TimingRunner(append(opts, destset.WithTimingObserver(sink.ObserveTiming))...)
		if err != nil {
			return err
		}
		_, err = r.Run(ctx)
		return err
	}
	r, err := w.info.Def.Runner(append(opts, destset.WithObserver(sink.Observe))...)
	if err != nil {
		return err
	}
	_, err = r.Run(ctx)
	return err
}

// postJSON posts one JSON request and decodes the JSON reply into out
// (when non-nil). Non-2xx responses return the decoded protocol error
// and the status code.
func (w *worker) postJSON(ctx context.Context, path string, body any, out any) (int, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return resp.StatusCode, fmt.Errorf("distrib: %s: %s", path, httpError(resp))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("distrib: decoding %s reply: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// httpError renders a non-2xx response: the protocol's JSON error body
// when present, the raw body otherwise.
func httpError(resp *http.Response) string {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var pe struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &pe) == nil && pe.Error != "" {
		return fmt.Sprintf("%s: %s", resp.Status, pe.Error)
	}
	return fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(raw))
}

// sleepCtx sleeps d or until ctx ends, reporting whether the full sleep
// happened.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
