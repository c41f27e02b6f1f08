package distrib_test

// Dataset wire-fetch tests: the no-shared-mount property (a worker with
// an empty private dataset dir completes the sweep with zero
// generations and byte-identical output), the fetch failure matrix —
// truncated body, CRC mismatch on receipt, coordinator restart
// mid-fetch — and a coordinator whose serving files heal. Request
// counting on the real endpoint pins one GET per content key: the
// coordinator announces each key once, and a local file that does not
// load as its key is fetched again.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"destset"
	"destset/internal/distrib"
)

// serveWrapped is serve with a middleware around the coordinator
// handler, for fault injection on the wire.
func serveWrapped(t *testing.T, cfg distrib.Config, wrap func(http.Handler) http.Handler) (*distrib.Coordinator, *http.Client) {
	t.Helper()
	coord, err := distrib.NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := distrib.NewMemListener()
	srv := &http.Server{Handler: wrap(distrib.NewHandler(coord))}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close(); coord.Close() })
	return coord, l.Client()
}

// resetSharedDatasets points the process-wide store at dir and empties
// the memory tier, restoring the no-dir default when the test ends.
func resetSharedDatasets(t *testing.T, dir string) {
	t.Helper()
	t.Cleanup(func() {
		destset.SetDatasetDir("")
		destset.PurgeDatasets()
	})
	if err := destset.SetDatasetDir(dir); err != nil {
		t.Fatal(err)
	}
	destset.PurgeDatasets()
}

// TestWorkerFetchesMissingDatasets is the no-shared-mount acceptance
// property: a worker with an empty private dataset directory — nothing
// shared with the coordinator — fetches every announced dataset over
// the wire, completes the sweep with zero generations, and the merged
// output is byte-identical to the single-process run. Each content key
// is fetched exactly once despite parallel prewarm.
func TestWorkerFetchesMissingDatasets(t *testing.T) {
	def := timingDef() // 2 sims × 1 workload × 2 seeds = 4 cells, 2 datasets
	want := localJSONL(t, def)
	datasets, err := def.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(datasets) != 2 {
		t.Fatalf("def announces %d datasets, want 2", len(datasets))
	}

	coordDir := t.TempDir()
	var gets atomic.Int64
	coord, client := serveWrapped(t, distrib.Config{Def: def, LeaseTTL: 5 * time.Second, DatasetDir: coordDir},
		countDatasetGETs(&gets))

	// The worker's world: an empty private dir, nothing in memory.
	resetSharedDatasets(t, t.TempDir())
	before := destset.DatasetCacheStats()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	stats, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
		URL:          "http://coordinator",
		Client:       client,
		Name:         "mountless",
		Parallelism:  4,
		PollInterval: 20 * time.Millisecond,
		RetryBase:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Prewarmed != 2 || stats.Fetched != 2 {
		t.Errorf("stats = %+v, want 2 prewarmed, 2 fetched", stats)
	}
	if stats.FetchedBytes <= 0 {
		t.Errorf("FetchedBytes = %d, want > 0", stats.FetchedBytes)
	}
	if n := gets.Load(); n != 2 {
		t.Errorf("coordinator saw %d dataset GETs, want exactly 2 (one per key)", n)
	}
	after := destset.DatasetCacheStats()
	if gens := after.Generations - before.Generations; gens != 0 {
		t.Errorf("mountless worker generated %d datasets, want 0 (wire fetch should serve them)", gens)
	}
	if hits := after.DiskHits - before.DiskHits; hits != 2 {
		t.Errorf("mountless worker recorded %d disk hits, want 2 (the installed fetches)", hits)
	}
	// The coordinator materialized its serving copies in its own dir.
	if files, _ := filepath.Glob(filepath.Join(coordDir, "*.dset")); len(files) != 2 {
		t.Errorf("coordinator dir holds %d dataset files, want 2", len(files))
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if served := coord.Progress().DatasetBytesServed; served != stats.FetchedBytes {
		t.Errorf("Progress.DatasetBytesServed = %d, want the worker's FetchedBytes %d", served, stats.FetchedBytes)
	}
	var got bytes.Buffer
	if err := coord.WriteMerged(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("no-shared-mount distributed output differs from the single-process run")
	}
}

// faultOnce rewrites the first dataset response per key through corrupt
// and passes every later one through untouched.
func faultOnce(t *testing.T, corrupt func([]byte) []byte) func(http.Handler) http.Handler {
	var mu sync.Mutex
	faulted := make(map[string]bool)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, "/v1/dataset/") {
				next.ServeHTTP(w, r)
				return
			}
			mu.Lock()
			first := !faulted[r.URL.Path]
			faulted[r.URL.Path] = true
			mu.Unlock()
			if !first {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				t.Errorf("dataset fetch %s: inner status %d", r.URL.Path, rec.Code)
			}
			body := corrupt(rec.Body.Bytes())
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			w.WriteHeader(http.StatusOK)
			w.Write(body)
		})
	}
}

// TestFetchFailureMatrix drives the receipt-validation retry loop: the
// first response per key is damaged (truncated, payload bit flip, or a
// header that is not a dataset file at all), the worker rejects it
// before install, retries, and the sweep still completes byte-identical
// with zero generations.
func TestFetchFailureMatrix(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"crc-mismatch", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[len(c)-1] ^= 0x80
			return c
		}},
		{"not-a-dataset", func(b []byte) []byte { return []byte("503 from a confused proxy") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			def := timingDef()
			want := localJSONL(t, def)
			coord, client := serveWrapped(t,
				distrib.Config{Def: def, LeaseTTL: 5 * time.Second, DatasetDir: t.TempDir()},
				faultOnce(t, tc.corrupt))
			resetSharedDatasets(t, t.TempDir())
			before := destset.DatasetCacheStats()

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()
			var logs bytes.Buffer
			var logMu sync.Mutex
			stats, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
				URL:          "http://coordinator",
				Client:       client,
				Name:         "retrier",
				Parallelism:  2,
				PollInterval: 20 * time.Millisecond,
				RetryBase:    5 * time.Millisecond,
				Logf: func(format string, args ...any) {
					logMu.Lock()
					fmt.Fprintf(&logs, format+"\n", args...)
					logMu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Fetched != 2 {
				t.Errorf("stats = %+v, want 2 fetched", stats)
			}
			logMu.Lock()
			logged := logs.String()
			logMu.Unlock()
			if !strings.Contains(logged, "retrying in") {
				t.Error("no retry was logged despite the damaged first response")
			}
			if gens := destset.DatasetCacheStats().Generations - before.Generations; gens != 0 {
				t.Errorf("worker generated %d datasets, want 0", gens)
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
		})
	}
}

// TestFetchCoordinatorRestartMidFetch bounces the coordinator between a
// worker's first fetch attempt and its retry: attempt one dies with the
// connection (response aborted mid-body), a fresh coordinator for the
// same def takes over the address, and the retry fetches from it —
// exactly what a redeployed coordinator looks like to the fleet.
func TestFetchCoordinatorRestartMidFetch(t *testing.T) {
	def := timingDef()
	want := localJSONL(t, def)

	coord1, err := distrib.NewCoordinator(distrib.Config{Def: def, LeaseTTL: 5 * time.Second, DatasetDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord1.Close() })
	coord2, err := distrib.NewCoordinator(distrib.Config{Def: def, LeaseTTL: 5 * time.Second, DatasetDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord2.Close() })

	// current flips from incarnation one to two the moment a dataset
	// fetch reaches incarnation one — which kills that response
	// mid-body, like the process it stands for.
	var current atomic.Pointer[http.Handler]
	h1, h2 := distrib.NewHandler(coord1), distrib.NewHandler(coord2)
	current.Store(&h1)
	outer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := *current.Load()
		if h == h1 && strings.HasPrefix(r.URL.Path, "/v1/dataset/") {
			current.Store(&h2)
			w.Header().Set("Content-Length", "1048576")
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("DSETCOLS, interrupted"))
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	})
	l := distrib.NewMemListener()
	srv := &http.Server{Handler: outer}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close() })

	resetSharedDatasets(t, t.TempDir())
	before := destset.DatasetCacheStats()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	stats, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
		URL:          "http://coordinator",
		Client:       l.Client(),
		Name:         "survivor",
		Parallelism:  1,
		PollInterval: 20 * time.Millisecond,
		RetryBase:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fetched != 2 {
		t.Errorf("stats = %+v, want 2 fetched", stats)
	}
	if gens := destset.DatasetCacheStats().Generations - before.Generations; gens != 0 {
		t.Errorf("worker generated %d datasets, want 0", gens)
	}
	if err := coord2.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := coord2.WriteMerged(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("output differs from the single-process run after the mid-fetch restart")
	}
}

// TestDatasetServingHeals pins that the coordinator remembers only a
// materialization that worked. A serving file deleted after it was
// materialized is materialized again by the next fetch, and a dataset
// dir that cannot be created answers a 5xx, not a client error, until
// the cause is fixed — then the same coordinator serves. Either way a
// mountless worker completes the sweep byte-identical with zero
// generations.
func TestDatasetServingHeals(t *testing.T) {
	def := timingDef()
	want := localJSONL(t, def)
	runMountless := func(t *testing.T, coord *distrib.Coordinator, client *http.Client) {
		t.Helper()
		resetSharedDatasets(t, t.TempDir())
		before := destset.DatasetCacheStats()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		stats, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
			URL:          "http://coordinator",
			Client:       client,
			Name:         "healed",
			Parallelism:  2,
			PollInterval: 20 * time.Millisecond,
			RetryBase:    5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Fetched != 2 {
			t.Errorf("stats = %+v, want 2 fetched", stats)
		}
		if gens := destset.DatasetCacheStats().Generations - before.Generations; gens != 0 {
			t.Errorf("worker generated %d datasets, want 0", gens)
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
	}

	t.Run("vanished-file", func(t *testing.T) {
		coordDir := t.TempDir()
		var ready atomic.Int64 // materializations, one log line each
		coord, client := serve(t, distrib.Config{Def: def, LeaseTTL: 5 * time.Second, DatasetDir: coordDir,
			Logf: func(format string, args ...any) {
				if strings.Contains(format, " ready at ") {
					ready.Add(1)
				}
			}})
		// Concurrent first fetches of a key share one materialization.
		keys := coord.Info().DatasetKeys
		paths := make([]string, 8*len(keys))
		errs := make([]error, len(paths))
		var wg sync.WaitGroup
		for i := range paths {
			wg.Add(1)
			go func() {
				defer wg.Done()
				paths[i], errs[i] = coord.DatasetPath(keys[i%len(keys)])
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
			if paths[i] != paths[i%len(keys)] {
				t.Fatalf("key %s resolved to %s and %s", keys[i%len(keys)], paths[i], paths[i%len(keys)])
			}
		}
		if n := ready.Load(); n != int64(len(keys)) {
			t.Errorf("%d concurrent fetches materialized %d times, want %d (once per key)", len(paths), n, len(keys))
		}
		for _, path := range paths[:len(keys)] {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
		runMountless(t, coord, client)
		if n := ready.Load(); n != 2*int64(len(keys)) {
			t.Errorf("materialized %d times in all, want %d (each deleted key exactly once more)", n, 2*len(keys))
		}
		if files, _ := filepath.Glob(filepath.Join(coordDir, "*.dset")); len(files) != 2 {
			t.Errorf("coordinator dir holds %d dataset files after the refetch, want 2", len(files))
		}
	})

	t.Run("failed-first-materialization", func(t *testing.T) {
		// A regular file where the dataset dir's parent should be: no
		// dataset can be spilled until it is removed.
		blocker := filepath.Join(t.TempDir(), "blocker")
		if err := os.WriteFile(blocker, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		coord, client := serve(t, distrib.Config{Def: def, LeaseTTL: 5 * time.Second, DatasetDir: filepath.Join(blocker, "datasets")})
		resp, err := client.Get("http://coordinator/v1/dataset/" + coord.Info().DatasetKeys[0])
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 500 {
			t.Errorf("failed materialization answered %s, want a 5xx server error", resp.Status)
		}
		if err := os.Remove(blocker); err != nil {
			t.Fatal(err)
		}
		runMountless(t, coord, client)
	})
}

// countDatasetGETs wraps a coordinator handler to count dataset fetches.
func countDatasetGETs(gets *atomic.Int64) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/dataset/") {
				gets.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestWorkerRefetchesTornLocalDataset: a worker whose private dataset
// dir already holds a file under an announced key trusts it only if it
// loads as that key. A torn 100-byte file is fetched again from the
// coordinator like a missing one — not skipped, left to fail its CRC on
// load and regenerate (which an imported trace cannot do at all).
func TestWorkerRefetchesTornLocalDataset(t *testing.T) {
	def := timingDef()
	var gets atomic.Int64
	coord, client := serveWrapped(t, distrib.Config{Def: def, LeaseTTL: 5 * time.Second, DatasetDir: t.TempDir()},
		countDatasetGETs(&gets))
	workerDir := t.TempDir()
	resetSharedDatasets(t, workerDir)
	torn := filepath.Join(workerDir, coord.Info().DatasetKeys[0]+".dset")
	if err := os.WriteFile(torn, bytes.Repeat([]byte{0xa5}, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	before := destset.DatasetCacheStats()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	stats, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
		URL:          "http://coordinator",
		Client:       client,
		Name:         "torn",
		Parallelism:  2,
		PollInterval: 20 * time.Millisecond,
		RetryBase:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fetched != 2 || gets.Load() != 2 {
		t.Errorf("stats = %+v after %d GETs, want 2 fetched with 2 GETs (the torn file refetched)", stats, gets.Load())
	}
	if gens := destset.DatasetCacheStats().Generations - before.Generations; gens != 0 {
		t.Errorf("worker generated %d datasets, want 0", gens)
	}
}

// TestImportedDatasetAnnouncedOnce: an imported trace ignores the cell
// seed, so a def that sweeps it at three seeds replays one dataset. The
// def lists it once, the coordinator announces it once, and a mountless
// worker fetches it with exactly one GET.
func TestImportedDatasetAnnouncedOnce(t *testing.T) {
	coordDir := t.TempDir()
	def := destset.NewTraceSweepDef(
		[]destset.EngineSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{importedWorkload(t, coordDir)},
		destset.WithSeeds(1, 2, 3),
	)
	datasets, err := def.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	if len(datasets) != 1 {
		t.Fatalf("def lists %d datasets for one imported trace, want 1", len(datasets))
	}
	var gets atomic.Int64
	coord, client := serveWrapped(t, distrib.Config{Def: def, LeaseTTL: 5 * time.Second, DatasetDir: coordDir},
		countDatasetGETs(&gets))
	if keys := coord.Info().DatasetKeys; len(keys) != 1 {
		t.Fatalf("coordinator announces %d dataset keys, want 1", len(keys))
	}
	resetSharedDatasets(t, t.TempDir())

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	stats, err := distrib.RunWorker(ctx, distrib.WorkerConfig{
		URL:          "http://coordinator",
		Client:       client,
		Name:         "importer",
		Parallelism:  4,
		PollInterval: 20 * time.Millisecond,
		RetryBase:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Prewarmed != 1 || stats.Fetched != 1 || gets.Load() != 1 {
		t.Errorf("stats = %+v after %d GETs, want 1 prewarmed and 1 fetched with exactly 1 GET", stats, gets.Load())
	}
}
