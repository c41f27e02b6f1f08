package distrib

// White-box tests of the worker's fetch path: the fail-fast
// classification of a coordinator that does not know the key, and the
// backoff jitter envelope.

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"destset"
)

// TestBackoffJitterBounds pins the retry-delay envelope: each delay is
// drawn from [cur/2, 3·cur/2), cur doubles per draw from base and
// saturates at max.
func TestBackoffJitterBounds(t *testing.T) {
	const (
		base = 100 * time.Millisecond
		max  = 800 * time.Millisecond
	)
	ladder := []time.Duration{
		100 * time.Millisecond, // base
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond, // capped at max...
		800 * time.Millisecond, // ...and stays there
		800 * time.Millisecond,
	}
	for trial := range 100 {
		b := &backoff{base: base, max: max}
		for rung, cur := range ladder {
			d := b.next()
			lo, hi := cur/2, cur+cur/2
			if d < lo || d >= hi {
				t.Fatalf("trial %d rung %d: delay %s outside [%s, %s)", trial, rung, d, lo, hi)
			}
		}
	}
}

// TestFetchUnknownKeyFailsFast is the fail-fast classification: a
// coordinator answering 404 does not replay the key at all, so the
// fetch must fail on the first attempt — one GET, no backoff sleeps —
// instead of burning maxFetchAttempts asking a coordinator that can
// never say yes.
func TestFetchUnknownKeyFailsFast(t *testing.T) {
	def := destset.NewTimingSweepDef(
		[]destset.SimSpec{
			{Protocol: destset.ProtocolSnooping},
			{Protocol: destset.ProtocolDirectory},
		},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 300, Measure: 300}},
		destset.WithSeeds(1, 2),
	)
	coord, err := NewCoordinator(Config{Def: def, LeaseTTL: 5 * time.Second, DatasetDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	l := NewMemListener()
	srv := &http.Server{Handler: NewHandler(coord)}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close(); coord.Close() })

	var gets atomic.Int64
	countAll := l.Client()
	client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if strings.HasPrefix(r.URL.Path, "/v1/dataset/") {
			gets.Add(1)
		}
		return countAll.Transport.RoundTrip(r)
	})}

	// A dataset the sweep does not announce: same workload, foreign seed.
	foreign := destset.SweepDataset{
		Workload: destset.WorkloadSpec{Name: "oltp", Warm: 100, Measure: 100},
		Seed:     99, Warm: 100, Measure: 100,
	}
	key, err := foreign.ContentKey()
	if err != nil {
		t.Fatal(err)
	}
	w := &worker{
		cfg:    WorkerConfig{RetryBase: 50 * time.Millisecond, RetryMax: time.Second},
		client: client,
		base:   "http://coordinator",
		name:   "lost",
	}
	_, fetchErr := w.fetchDataset(context.Background(), foreign, key, t.TempDir())
	if fetchErr == nil {
		t.Fatal("fetching an unannounced key succeeded")
	}
	if !errors.Is(fetchErr, errNoRetry) {
		t.Errorf("error %v is not marked permanent", fetchErr)
	}
	// One GET proves the fail-fast: the retry loop never reached a
	// second attempt, so it also never slept a backoff.
	if n := gets.Load(); n != 1 {
		t.Errorf("coordinator saw %d dataset GETs, want exactly 1 (fail fast, no retries)", n)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
