package distrib

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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
	// NoPrewarm skips resolving the coordinator's pre-announced datasets
	// before leasing. The default (prewarm) is what lets a fleet sharing
	// a warm dataset directory start without a single regeneration.
	NoPrewarm bool
	// PeerAddr is the TCP address the worker's read-only peer dataset
	// server listens on (use "host:0" for an ephemeral port). Peer
	// serving needs a local dataset directory; an empty PeerAddr (with
	// nil PeerListener) disables serving, though peer fetching still
	// follows the coordinator's holder hints.
	PeerAddr string
	// PeerListener injects a pre-bound listener for the peer dataset
	// server — tests run whole fleets over in-memory networks through
	// it. Overrides PeerAddr.
	PeerListener net.Listener
	// PeerAdvertise overrides the base URL announced to the coordinator
	// (default "http://" + the listener address).
	PeerAdvertise string
	// NoPeer opts out of the peer fabric entirely: nothing is served,
	// nothing is announced, and every dataset fetch goes straight to
	// the coordinator.
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
	// Fetched and FetchedBytes count datasets pulled over the wire
	// during prewarm — datasets found neither in the process cache nor
	// in the local dataset directory. FetchedFromPeers counts the
	// subset served by peer workers rather than the coordinator.
	Fetched          int
	FetchedBytes     int64
	FetchedFromPeers int
	// PeerServedBytes counts dataset bytes this worker's own peer
	// server streamed to other workers.
	PeerServedBytes int64
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
// coordinator restart mid-transfer heals on the next attempt. The first
// attempts go to peer holders when the coordinator hints any (at most
// maxPeerFetches of them); the rest fall back to the coordinator — so a
// dead, slow or lying peer costs one attempt, never the fetch.
const maxFetchAttempts = 4

// maxPeerFetches bounds how many distinct peers one fetch tries before
// falling back to the coordinator.
const maxPeerFetches = 2

// maxPeerStreams bounds how many dataset streams a worker's peer server
// sends concurrently; excess fetchers get 503 and move to their next
// source rather than queueing behind a saturated peer.
const maxPeerStreams = 4

// errFetchPermanent marks fetch failures that retrying cannot heal — a
// coordinator that does not know the key at all (version skew or a
// foreign sweep). fetchDataset fails fast instead of burning the
// attempt budget on backoff sleeps.
var errFetchPermanent = errors.New("distrib: permanent fetch failure")

// backoff produces jittered exponential retry delays: each delay is
// drawn from [cur/2, 3·cur/2) — the jitter keeps a fleet that lost its
// coordinator from stampeding back in lockstep — and cur doubles per
// retry up to max. reset returns to the base delay after any success.
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

func (b *backoff) reset() { b.cur = 0 }

// worker is one running RunWorker invocation.
type worker struct {
	cfg      WorkerConfig
	client   *http.Client
	base     string
	name     string
	info     SweepInfo
	planFP   string
	stats    WorkerStats
	fg       fetchGroup
	peerAddr string // advertised peer base URL ("" when not serving)
	ps       *peerServer

	// holdMu guards the incremental holder announcements: held is every
	// content key installed locally, acked the subset the coordinator
	// has confirmed hearing about. The difference piggybacks on the next
	// lease or heartbeat.
	holdMu sync.Mutex
	held   map[string]bool
	acked  map[string]bool
}

// fetchGroup deduplicates concurrent wire fetches per content key:
// however many prewarm goroutines want the same dataset, exactly one
// GET runs and the rest wait on its outcome.
type fetchGroup struct {
	mu    sync.Mutex
	calls map[string]*fetchCall
}

// fetchCall is one in-flight (or finished) fetch; done is closed when
// n, peer and err are final.
type fetchCall struct {
	done chan struct{}
	n    int64
	peer bool
	err  error
}

// totals sums the group's successful fetches.
func (g *fetchGroup) totals() (fetched int, bytes int64, fromPeers int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, c := range g.calls {
		select {
		case <-c.done:
		default:
			continue
		}
		if c.err == nil {
			fetched++
			bytes += c.n
			if c.peer {
				fromPeers++
			}
		}
	}
	return fetched, bytes, fromPeers
}

// RunWorker executes sweep cells for a coordinator until the sweep
// completes: handshake, optional dataset prewarm, then a lease loop —
// lease a cell range, run it through the ordinary facade runner with
// heartbeats keeping the lease alive, and stream the JSONL observation
// records back. Cell execution errors are reported (the coordinator
// re-queues the range) and the loop continues; the worker returns when
// the coordinator declares the sweep done or failed, when ctx ends, or
// when the coordinator stays unreachable.
//
// When a local dataset directory and a peer address (or listener) are
// configured, the worker also serves its installed datasets read-only
// to other workers and announces what it holds — the coordinator's
// holder directory then steers later fetches peer-to-peer, so the
// coordinator uplink serves each dataset roughly once per fleet
// instead of once per worker.
func RunWorker(ctx context.Context, cfg WorkerConfig) (stats WorkerStats, err error) {
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
	defer func() {
		if w.ps != nil {
			w.stats.PeerServedBytes = w.ps.stop()
		}
		stats = w.stats
	}()
	if err = w.handshake(ctx); err != nil {
		return
	}
	if err = w.startPeerServer(); err != nil {
		return
	}
	if err = w.prewarm(ctx); err != nil {
		return
	}
	w.announceHolds(ctx)
	err = w.leaseLoop(ctx)
	return
}

// peerServer is the worker's read-only dataset server: it answers
// GET /v1/dataset/{key} for the sweep's announced content keys out of
// the local dataset directory, and nothing else. Streams are bounded by
// maxPeerStreams — a saturated peer answers 503 and the fetcher moves
// to its next source. Receivers trust no peer (every install
// re-validates the payload whole), so a vanished, half-written or lying
// file costs the fetcher one attempt and poisons nothing.
type peerServer struct {
	srv    *http.Server
	sem    chan struct{}
	served atomic.Int64
}

// newPeerServer serves paths (content key -> local file) on ln until
// stopped.
func newPeerServer(ln net.Listener, paths map[string]string) *peerServer {
	ps := &peerServer{sem: make(chan struct{}, maxPeerStreams)}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/dataset/{key}", func(w http.ResponseWriter, r *http.Request) {
		path, ok := paths[r.PathValue("key")]
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "peer does not know this dataset key"})
			return
		}
		select {
		case ps.sem <- struct{}{}:
			defer func() { <-ps.sem }()
		default:
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "peer at stream capacity"})
			return
		}
		ps.served.Add(streamFile(w, path, http.StatusNotFound))
	})
	ps.srv = &http.Server{Handler: mux}
	go ps.srv.Serve(ln)
	return ps
}

// stop closes the server and returns the total bytes it served.
func (ps *peerServer) stop() int64 {
	ps.srv.Close()
	return ps.served.Load()
}

// startPeerServer brings up the peer dataset server when the worker is
// configured to serve and has a local dataset directory to serve from,
// and records the base URL later announcements advertise.
func (w *worker) startPeerServer() error {
	dir := destset.DatasetDir()
	if w.cfg.NoPeer || dir == "" {
		return nil
	}
	ln := w.cfg.PeerListener
	if ln == nil {
		if w.cfg.PeerAddr == "" {
			return nil
		}
		var err error
		ln, err = net.Listen("tcp", w.cfg.PeerAddr)
		if err != nil {
			return fmt.Errorf("distrib: peer server listening on %s: %w", w.cfg.PeerAddr, err)
		}
	}
	// The servable universe is fixed at handshake: the sweep's announced
	// datasets, each at its content-addressed path. Keys not yet (or no
	// longer) on disk answer 404 at stream time.
	paths := make(map[string]string, len(w.info.Datasets))
	for _, sd := range w.info.Datasets {
		key, err := sd.ContentKey()
		if err != nil {
			continue
		}
		path, err := sd.PathIn(dir)
		if err != nil {
			continue
		}
		paths[key] = path
	}
	w.ps = newPeerServer(ln, paths)
	w.peerAddr = w.cfg.PeerAdvertise
	if w.peerAddr == "" {
		w.peerAddr = "http://" + ln.Addr().String()
	}
	w.logf("worker %s: peer dataset server on %s (%d servable keys)", w.name, w.peerAddr, len(paths))
	return nil
}

// markHeld records a content key as installed locally, to be announced
// to the holder directory on the next announce or piggybacked request.
func (w *worker) markHeld(key string) {
	w.holdMu.Lock()
	if w.held == nil {
		w.held = make(map[string]bool)
	}
	w.held[key] = true
	w.holdMu.Unlock()
}

// pendingHolds returns held keys the coordinator has not yet confirmed
// hearing about, sorted for deterministic requests.
func (w *worker) pendingHolds() []string {
	w.holdMu.Lock()
	defer w.holdMu.Unlock()
	var out []string
	for k := range w.held {
		if !w.acked[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// ackHolds marks keys as confirmed delivered to the coordinator.
func (w *worker) ackHolds(keys []string) {
	if len(keys) == 0 {
		return
	}
	w.holdMu.Lock()
	if w.acked == nil {
		w.acked = make(map[string]bool)
	}
	for _, k := range keys {
		w.acked[k] = true
	}
	w.holdMu.Unlock()
}

// workerReq builds a lease/heartbeat/announce body. A serving worker
// piggybacks its peer address and unacknowledged holds — incremental
// holder-directory updates riding requests the worker sends anyway.
// The returned keys are what to ackHolds if the request succeeds.
func (w *worker) workerReq(lease string) (workerRequest, []string) {
	req := workerRequest{Worker: w.name, Plan: w.planFP, Lease: lease}
	if w.peerAddr == "" {
		return req, nil
	}
	holds := w.pendingHolds()
	req.Peer = w.peerAddr
	req.Holds = holds
	return req, holds
}

// announceHolds pushes the peer address and pending holds to the
// coordinator right away, best-effort: an announcement that fails (or a
// coordinator without the endpoint) just means fetchers miss a hint and
// fall back to the coordinator uplink.
func (w *worker) announceHolds(ctx context.Context) {
	if w.peerAddr == "" {
		return
	}
	req, holds := w.workerReq("")
	if _, err := w.postJSON(ctx, "/v1/announce", req, nil); err == nil {
		w.ackHolds(holds)
	}
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
// local file. Against a warm shared directory every dataset is a disk
// load; with empty private directories the whole fleet still starts
// without a single generation, because the bytes come over the wire.
// Without a local directory there is nowhere to install, so missing
// datasets generate exactly as before.
func (w *worker) prewarm(ctx context.Context) error {
	if w.cfg.NoPrewarm || len(w.info.Datasets) == 0 {
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
	err := sweep.ForEach(ctx, len(datasets), w.cfg.Parallelism, func(i int) error {
		sd := datasets[i]
		if dir != "" && !sd.Cached() && !sd.Stored(dir) {
			if err := w.fetchShared(ctx, sd, keys[i], dir); err != nil {
				return err
			}
		}
		if err := sd.Prewarm(); err != nil {
			return err
		}
		if dir != "" && sd.Stored(dir) {
			w.markHeld(keys[i])
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("distrib: prewarming datasets: %w", err)
	}
	w.stats.Prewarmed = len(datasets)
	w.stats.Fetched, w.stats.FetchedBytes, w.stats.FetchedFromPeers = w.fg.totals()
	if w.stats.Fetched > 0 {
		w.logf("worker %s: fetched %d datasets (%d bytes, %d from peers)",
			w.name, w.stats.Fetched, w.stats.FetchedBytes, w.stats.FetchedFromPeers)
	}
	w.logf("worker %s: resolved %d pre-announced dataset(s)", w.name, len(datasets))
	return nil
}

// fetchShared runs at most one wire fetch per content key; concurrent
// callers of the same key wait for the single in-flight fetch.
func (w *worker) fetchShared(ctx context.Context, sd destset.SweepDataset, key, dir string) error {
	w.fg.mu.Lock()
	if w.fg.calls == nil {
		w.fg.calls = make(map[string]*fetchCall)
	}
	if c, ok := w.fg.calls[key]; ok {
		w.fg.mu.Unlock()
		select {
		case <-c.done:
			return c.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	c := &fetchCall{done: make(chan struct{})}
	w.fg.calls[key] = c
	w.fg.mu.Unlock()
	c.n, c.peer, c.err = w.fetchDataset(ctx, sd, key, dir)
	close(c.done)
	if c.err == nil {
		// Announce the freshly installed key right away — workers still
		// mid-prewarm behind this one can then pull it peer-to-peer.
		w.markHeld(key)
		w.announceHolds(ctx)
	}
	return c.err
}

// holderHints asks the coordinator which peers hold key, best-effort:
// an error, a coordinator without the endpoint, an empty holder set or
// a reply without the digest that peer bytes must match all just mean
// fetching straight from the uplink. The worker's own address is
// filtered out.
func (w *worker) holderHints(ctx context.Context, key string) HoldersReply {
	if w.cfg.NoPeer {
		return HoldersReply{}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/holders/"+key, nil)
	if err != nil {
		return HoldersReply{}
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return HoldersReply{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return HoldersReply{}
	}
	var reply HoldersReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || reply.SHA256 == "" {
		return HoldersReply{}
	}
	hints := reply.Holders[:0]
	for _, h := range reply.Holders {
		if h != "" && h != w.peerAddr {
			hints = append(hints, h)
		}
	}
	reply.Holders = hints
	return reply
}

// fetchSource is one place a fetch attempt asks for the bytes.
type fetchSource struct {
	base string
	peer bool
	// sha256, set for peers, is the coordinator's digest of the bytes.
	sha256 string
}

// fetchSources orders one fetch's attempts: up to maxPeerFetches hinted
// peer holders first (the coordinator shuffles every hint reply, so a
// fleet's pulls spread across holders instead of dog-piling one), then
// the coordinator for every remaining attempt.
func (w *worker) fetchSources(ctx context.Context, key string) []fetchSource {
	var srcs []fetchSource
	hints := w.holderHints(ctx, key)
	for _, h := range hints.Holders {
		if len(srcs) == maxPeerFetches {
			break
		}
		srcs = append(srcs, fetchSource{base: strings.TrimRight(h, "/"), peer: true, sha256: hints.SHA256})
	}
	for len(srcs) < maxFetchAttempts {
		srcs = append(srcs, fetchSource{base: w.base})
	}
	return srcs
}

// fetchDataset pulls one dataset, hinted peer holders before the
// coordinator, with the jittered backoff the rest of the worker uses:
// transfer and validation failures alike move to the next source — a
// truncated body, a lying peer and a coordinator bounced mid-transfer
// all heal the same way, by asking someone again. A coordinator that
// does not know the key at all fails fast instead: no amount of
// backoff teaches it the key, so the attempt budget would be pure
// sleep.
func (w *worker) fetchDataset(ctx context.Context, sd destset.SweepDataset, key, dir string) (int64, bool, error) {
	srcs := w.fetchSources(ctx, key)
	bo := backoff{base: w.cfg.RetryBase, max: w.cfg.RetryMax}
	var lastErr error
	for attempt := 1; attempt <= len(srcs); attempt++ {
		src := srcs[attempt-1]
		n, err := w.fetchOnce(ctx, src, sd, key, dir)
		if err == nil {
			from := "coordinator"
			if src.peer {
				from = "peer " + src.base
			}
			w.logf("worker %s: dataset %s: fetched %d bytes from %s", w.name, key, n, from)
			return n, src.peer, nil
		}
		if ctx.Err() != nil {
			return 0, false, ctx.Err()
		}
		if errors.Is(err, errFetchPermanent) {
			return 0, false, fmt.Errorf("distrib: fetching dataset %s: %w", key, err)
		}
		lastErr = err
		if attempt < len(srcs) {
			delay := bo.next()
			w.logf("worker %s: dataset %s: fetch attempt %d failed (%v); retrying in %s",
				w.name, key, attempt, err, delay.Round(time.Millisecond))
			if !sleepCtx(ctx, delay) {
				return 0, false, ctx.Err()
			}
		}
	}
	return 0, false, fmt.Errorf("distrib: fetching dataset %s after %d attempts: %w", key, len(srcs), lastErr)
}

// fetchOnce is one fetch attempt against src: GET the content-addressed
// bytes and install them under dir (validated, temp + rename) only
// after the whole body checks out. A peer's body must also hash to the
// coordinator's digest — the entire trust model for peers: a corrupt or
// lying stream, even one that re-checksums its own header, installs
// nothing and costs one attempt. A coordinator answering 404 does not
// know the key at all (its vanished-file case is 503), which is
// permanent; a peer's 404 just means the hint went stale.
func (w *worker) fetchOnce(ctx context.Context, src fetchSource, sd destset.SweepDataset, key, dir string) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, src.base+"/v1/dataset/"+key, nil)
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if !src.peer && resp.StatusCode == http.StatusNotFound {
			return 0, fmt.Errorf("%w: /v1/dataset/%s: %s", errFetchPermanent, key, httpError(resp))
		}
		return 0, fmt.Errorf("distrib: /v1/dataset/%s: %s", key, httpError(resp))
	}
	if w.cfg.FetchHold > 0 {
		w.logf("worker %s: dataset %s: holding fetch for %s", w.name, key, w.cfg.FetchHold)
		if !sleepCtx(ctx, w.cfg.FetchHold) {
			return 0, ctx.Err()
		}
	}
	body := io.Reader(resp.Body)
	if src.peer {
		body = &digestReader{r: resp.Body, h: sha256.New(), want: src.sha256}
	}
	return sd.InstallTo(dir, body)
}

// digestReader passes r through and turns its EOF into an error unless
// the bytes read hash to want. InstallTo reads to EOF before it renames,
// so bytes that fail the check never appear in the dataset directory.
type digestReader struct {
	r    io.Reader
	h    hash.Hash
	want string
}

func (d *digestReader) Read(p []byte) (int, error) {
	n, err := d.r.Read(p)
	d.h.Write(p[:n])
	if err == io.EOF && hex.EncodeToString(d.h.Sum(nil)) != d.want {
		err = fmt.Errorf("distrib: peer bytes do not hash to the coordinator's sha256 %s", d.want)
	}
	return n, err
}

// leaseLoop leases, executes and uploads ranges until done. Failures to
// reach the coordinator retry under jittered exponential backoff
// (honoring ctx between attempts) up to maxNetFailures in a row.
func (w *worker) leaseLoop(ctx context.Context) error {
	netFails := 0
	bo := backoff{base: w.cfg.RetryBase, max: w.cfg.RetryMax}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var reply LeaseReply
		req, holds := w.workerReq("")
		status, err := w.postJSON(ctx, "/v1/lease", req, &reply)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if status == http.StatusConflict {
				return err
			}
			netFails++
			if netFails >= maxNetFailures {
				return fmt.Errorf("distrib: coordinator unreachable after %d attempts: %w", netFails, err)
			}
			delay := bo.next()
			w.logf("worker %s: coordinator unreachable (%v); retry %d/%d in %s",
				w.name, err, netFails, maxNetFailures, delay.Round(time.Millisecond))
			if !sleepCtx(ctx, delay) {
				return ctx.Err()
			}
			continue
		}
		netFails = 0
		bo.reset()
		w.ackHolds(holds)
		switch {
		case reply.Failed != "":
			return fmt.Errorf("distrib: coordinator reports sweep failed: %s", reply.Failed)
		case reply.Done:
			w.logf("worker %s: sweep done (%d leases, %d cells)", w.name, w.stats.Leases, w.stats.Cells)
			return nil
		case reply.Lease == nil:
			if !sleepCtx(ctx, w.cfg.PollInterval) {
				return ctx.Err()
			}
			continue
		}
		if err := w.runLease(ctx, *reply.Lease); err != nil {
			return err
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
				req, holds := w.workerReq(lease.ID)
				status, err := w.postJSON(leaseCtx, "/v1/heartbeat", req, nil)
				if err == nil {
					w.ackHolds(holds)
				}
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
	// body is replayable, so each attempt re-sends identical bytes.
	url := fmt.Sprintf("%s/v1/complete?lease=%s&worker=%s&plan=%s", w.base, lease.ID, w.name, w.planFP)
	bo := backoff{base: w.cfg.RetryBase, max: w.cfg.RetryMax}
	var resp *http.Response
	for attempt := 1; ; attempt++ {
		req, err := http.NewRequestWithContext(leaseCtx, http.MethodPost, url, bytes.NewReader(buf.Bytes()))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/x-ndjson")
		resp, err = w.client.Do(req)
		if err == nil {
			break
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if leaseCtx.Err() != nil {
			// Lease lost mid-upload; the range is already someone else's.
			return nil
		}
		if attempt >= maxUploadAttempts {
			w.logf("worker %s: %s: upload failed after %d attempts: %v", w.name, lease.ID, attempt, err)
			return nil
		}
		delay := bo.next()
		w.logf("worker %s: %s: upload attempt %d failed (%v); retrying in %s",
			w.name, lease.ID, attempt, err, delay.Round(time.Millisecond))
		if !sleepCtx(leaseCtx, delay) {
			return ctx.Err()
		}
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
