package distrib

// White-box tests of the peer dataset fabric: the holder-hinted fetch
// source ordering, the fail-fast classification of a coordinator that
// does not know the key, the backoff jitter envelope, and the two
// properties the fabric stands on — the coordinator uplink serves each
// key O(1) times however many workers fan out, and a corrupt or lying
// peer can cost an attempt but never poison an install.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc64"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"destset"
)

// peerTestDef mirrors the external tests' small timing sweep: 2 sims ×
// 1 workload × 2 seeds = 4 cells, 2 datasets.
func peerTestDef() destset.SweepDef {
	return destset.NewTimingSweepDef(
		[]destset.SimSpec{
			{Protocol: destset.ProtocolSnooping},
			{Protocol: destset.ProtocolDirectory},
		},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 300, Measure: 300}},
		destset.WithSeeds(1, 2),
	)
}

// servePeerCoordinator starts a coordinator for def on net's
// "coordinator" host, counting dataset GETs per key.
func servePeerCoordinator(t *testing.T, net *MemNet, def destset.SweepDef) (*Coordinator, map[string]*atomic.Int64) {
	t.Helper()
	coord, err := NewCoordinator(Config{Def: def, LeaseTTL: 5 * time.Second, DatasetDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	gets := make(map[string]*atomic.Int64)
	for _, k := range coord.Info().DatasetKeys {
		gets[k] = &atomic.Int64{}
	}
	inner := NewHandler(coord)
	outer := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if key, ok := strings.CutPrefix(r.URL.Path, "/v1/dataset/"); ok {
			if n, known := gets[key]; known {
				n.Add(1)
			}
		}
		inner.ServeHTTP(w, r)
	})
	l := net.Listen("coordinator")
	srv := &http.Server{Handler: outer}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close(); coord.Close() })
	return coord, gets
}

// newPeerWorker builds a worker wired to net, serving its private dir
// on its own host ("http://name") for the def's dataset keys.
func newPeerWorker(t *testing.T, net *MemNet, name, planFP string, datasets []destset.SweepDataset) (*worker, string) {
	t.Helper()
	dir := t.TempDir()
	paths := make(map[string]string, len(datasets))
	for _, sd := range datasets {
		key, err := sd.ContentKey()
		if err != nil {
			t.Fatal(err)
		}
		path, err := sd.PathIn(dir)
		if err != nil {
			t.Fatal(err)
		}
		paths[key] = path
	}
	w := &worker{
		cfg:      WorkerConfig{RetryBase: 5 * time.Millisecond, RetryMax: 20 * time.Millisecond},
		client:   net.Client(),
		base:     "http://coordinator",
		name:     name,
		planFP:   planFP,
		peerAddr: "http://" + name,
		ps:       newPeerServer(net.Listen(name), paths),
	}
	t.Cleanup(func() { w.ps.stop() })
	return w, dir
}

// TestBackoffJitterBounds pins the retry-delay envelope: each delay is
// drawn from [cur/2, 3·cur/2), cur doubles per draw and saturates at
// max, and reset restarts the ladder at base.
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
	b := &backoff{base: base, max: max}
	for trial := range 100 {
		b.reset()
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
	net := NewMemNet()
	_, _ = servePeerCoordinator(t, net, peerTestDef())

	var gets atomic.Int64
	countAll := net.Client()
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
	fetchErr := w.fetchShared(context.Background(), foreign, key, t.TempDir())
	if fetchErr == nil {
		t.Fatal("fetching an unannounced key succeeded")
	}
	if !errors.Is(fetchErr, errFetchPermanent) {
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

// TestPeerFetchFanOut is the uplink property the fabric exists for:
// four workers fetch the same two datasets, and the coordinator serves
// each key exactly once — the first worker pulls from the uplink and
// every later worker is hinted to a peer holder. All four end with
// byte-identical installs.
func TestPeerFetchFanOut(t *testing.T) {
	def := peerTestDef()
	net := NewMemNet()
	coord, gets := servePeerCoordinator(t, net, def)
	planFP := coord.Plan().Fingerprint()
	datasets, err := def.Datasets()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(datasets))
	for i, sd := range datasets {
		if keys[i], err = sd.ContentKey(); err != nil {
			t.Fatal(err)
		}
	}

	ctx := context.Background()
	type install struct {
		w   *worker
		dir string
	}
	var fleet []install
	for _, name := range []string{"w1", "w2", "w3", "w4"} {
		w, dir := newPeerWorker(t, net, name, planFP, datasets)
		for i, sd := range datasets {
			if err := w.fetchShared(ctx, sd, keys[i], dir); err != nil {
				t.Fatalf("%s: fetching %s: %v", name, keys[i], err)
			}
		}
		fleet = append(fleet, install{w, dir})
	}

	for _, k := range keys {
		if n := gets[k].Load(); n != 1 {
			t.Errorf("coordinator served key %s %d times, want exactly 1 (later workers must hit peers)", k, n)
		}
	}
	// Worker 1 had no holders to be hinted to; everyone after it must
	// have fetched everything peer-to-peer.
	for i, in := range fleet {
		fetched, _, fromPeers := in.w.fg.totals()
		if fetched != len(keys) {
			t.Errorf("%s fetched %d datasets, want %d", in.w.name, fetched, len(keys))
		}
		want := len(keys)
		if i == 0 {
			want = 0
		}
		if fromPeers != want {
			t.Errorf("%s fetched %d datasets from peers, want %d", in.w.name, fromPeers, want)
		}
	}
	// Every install is byte-identical to the first worker's.
	for i, sd := range datasets {
		ref, err := sd.PathIn(fleet[0].dir)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range fleet[1:] {
			p, err := sd.PathIn(in.dir)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(p)
			if err != nil {
				t.Fatalf("%s: %v", in.w.name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: installed bytes for key %s differ from worker 1's", in.w.name, keys[i])
			}
		}
	}
	prog := coord.Progress()
	if prog.PeerHintsServed == 0 {
		t.Error("Progress.PeerHintsServed = 0, want > 0")
	}
	if prog.DatasetBytesServed <= 0 {
		t.Error("Progress.DatasetBytesServed <= 0, want the two uplink serves counted")
	}
	if prog.PeerHolders != len(fleet) {
		t.Errorf("Progress.PeerHolders = %d, want %d", prog.PeerHolders, len(fleet))
	}
}

// TestPeerCorruptionNeverPoisons registers a lying peer as the sole
// holder: whatever it serves — truncated, bit-flipped, not a dataset at
// all, or a forged file that passes every self-check — fails receipt
// validation or the coordinator's digest, installs nothing, and the
// fetch falls back to the coordinator. A clean worker then pulls the
// recovered install peer-to-peer and gets byte-identical data: the lie
// stops at the validator, it never propagates.
func TestPeerCorruptionNeverPoisons(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bit-flip", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[len(c)-1] ^= 0x80
			return c
		}},
		{"not-a-dataset", func(b []byte) []byte { return []byte("trust me, this is oltp") }},
		// Valid in every way a receiver can check on its own — header,
		// layout, payload CRC, decoded key — but not the bytes the
		// coordinator serves: only the coordinator's digest catches it.
		{"re-checksummed", func(b []byte) []byte {
			c := bytes.Clone(b)
			c[len(c)/2] ^= 0x01
			binary.LittleEndian.PutUint64(c[48:], crc64.Checksum(c[64:], crc64.MakeTable(crc64.ECMA)))
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			def := peerTestDef()
			net := NewMemNet()
			coord, gets := servePeerCoordinator(t, net, def)
			planFP := coord.Plan().Fingerprint()
			datasets, err := def.Datasets()
			if err != nil {
				t.Fatal(err)
			}
			sd := datasets[0]
			key, err := sd.ContentKey()
			if err != nil {
				t.Fatal(err)
			}
			valid, err := sd.SpillTo(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			validBytes, err := os.ReadFile(valid)
			if err != nil {
				t.Fatal(err)
			}
			lie := tc.corrupt(validBytes)

			var liarGets atomic.Int64
			liarMux := http.NewServeMux()
			liarMux.HandleFunc("GET /v1/dataset/{key}", func(w http.ResponseWriter, r *http.Request) {
				liarGets.Add(1)
				w.Write(lie)
			})
			liarLn := net.Listen("liar")
			liarSrv := &http.Server{Handler: liarMux}
			go liarSrv.Serve(liarLn)
			t.Cleanup(func() { liarSrv.Close(); liarLn.Close() })
			if err := coord.Announce("liar", planFP, "http://liar", []string{key}); err != nil {
				t.Fatal(err)
			}

			w1, dir1 := newPeerWorker(t, net, "honest", planFP, datasets)
			if err := w1.fetchShared(context.Background(), sd, key, dir1); err != nil {
				t.Fatalf("fetch with a lying holder failed outright: %v", err)
			}
			if n := liarGets.Load(); n != 1 {
				t.Errorf("liar saw %d GETs, want exactly 1 (one wasted attempt)", n)
			}
			if n := gets[key].Load(); n != 1 {
				t.Errorf("coordinator served key %d times, want 1 (the fallback)", n)
			}
			p1, err := sd.PathIn(dir1)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(p1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, validBytes) {
				t.Fatal("install after the lying peer differs from the valid bytes")
			}

			// The recovered worker is now a holder; a clean worker pulls
			// from it and must see valid bytes — nothing poisoned.
			w2, dir2 := newPeerWorker(t, net, "downstream", planFP, datasets)
			if err := w2.fetchShared(context.Background(), sd, key, dir2); err != nil {
				t.Fatal(err)
			}
			_, _, fromPeers := w2.fg.totals()
			if fromPeers != 1 {
				t.Errorf("downstream fetched %d from peers, want 1", fromPeers)
			}
			p2, err := sd.PathIn(dir2)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := os.ReadFile(p2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got2, validBytes) {
				t.Error("downstream peer-to-peer install differs from the valid bytes")
			}
		})
	}
}
