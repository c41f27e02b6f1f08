package destset_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"destset"
)

// TestJSONLObserverRoundTrip runs a real sweep through the JSONL sink
// and decodes the file back: every streamed observation must survive
// the trip, in order.
func TestJSONLObserverRoundTrip(t *testing.T) {
	var want []destset.Observation
	var buf bytes.Buffer
	sink := destset.NewJSONLObserver(&buf)
	_, err := destset.NewRunner(
		[]destset.EngineSpec{destset.SpecForPolicy(destset.Group), {Protocol: destset.ProtocolDirectory}},
		[]destset.WorkloadSpec{{Name: "ocean", Warm: 500, Measure: 3000}},
		destset.WithSeeds(1, 2),
		destset.WithInterval(1000),
		destset.WithObserver(func(o destset.Observation) {
			want = append(want, o)
			sink.Observe(o)
		}),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("sweep streamed no observations")
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(want) {
		t.Fatalf("%d lines written for %d observations", lines, len(want))
	}

	got, err := destset.ReadObservations(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestReadObservationsRejectsGarbage checks malformed lines fail with
// their line number while blank lines are tolerated.
func TestReadObservationsRejectsGarbage(t *testing.T) {
	in := "{\"Engine\":\"a\"}\n\n{not json}\n"
	obs, err := destset.ReadObservations(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want line-3 decode failure", err)
	}
	if len(obs) != 1 || obs[0].Engine != "a" {
		t.Errorf("prefix observations = %+v", obs)
	}
}

// failWriter fails after n bytes to exercise sticky errors.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, fmt.Errorf("disk full")
	}
	f.left -= len(p)
	return len(p), nil
}

func TestJSONLObserverStickyError(t *testing.T) {
	sink := destset.NewJSONLObserver(&failWriter{left: 10})
	for i := 0; i < 20_000; i++ {
		sink.Observe(destset.Observation{Engine: "e", Workload: "w", Interval: i})
	}
	if err := sink.Flush(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Flush err = %v, want sticky write failure", err)
	}
	if sink.Err() == nil {
		t.Error("Err should report the sticky failure")
	}
}

// TestManifestRoundTripAndSkipping writes a manifest-headed shard file
// and checks readers skip the manifest while merge tooling decodes it.
func TestManifestRoundTripAndSkipping(t *testing.T) {
	engines := []destset.EngineSpec{{Protocol: destset.ProtocolSnooping}}
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 200, Measure: 200}}
	runner := destset.NewRunner(engines, workloads)
	plan, err := runner.Plan()
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	sink := destset.NewJSONLObserver(&buf)
	if err := sink.WriteManifest(plan.Manifest(0, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := destset.NewRunner(engines, workloads,
		destset.WithObserver(sink.Observe)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	obs, err := destset.ReadObservations(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 1 || obs[0].Engine != "snooping" {
		t.Fatalf("observations with manifest skipped = %+v", obs)
	}
	streamed := 0
	err = destset.EachObservation(bytes.NewReader(buf.Bytes()), func(o destset.Observation) error {
		streamed++
		return nil
	})
	if err != nil || streamed != 1 {
		t.Fatalf("EachObservation = (%d, %v)", streamed, err)
	}
}

// TestEachObservationStopsOnCallbackError pins the streaming contract:
// fn's error aborts the scan and surfaces as-is.
func TestEachObservationStopsOnCallbackError(t *testing.T) {
	in := "{\"Engine\":\"a\"}\n{\"Engine\":\"b\"}\n"
	calls := 0
	sentinel := fmt.Errorf("stop here")
	err := destset.EachObservation(strings.NewReader(in), func(destset.Observation) error {
		calls++
		return sentinel
	})
	if err != sentinel || calls != 1 {
		t.Errorf("EachObservation = (%d calls, %v), want (1, sentinel)", calls, err)
	}
}

// shardJSONL runs one shard of a sweep into a manifest-headed JSONL
// buffer, the way cmd/traceeval -json -shard does.
func shardJSONL(t *testing.T, engines []destset.EngineSpec, workloads []destset.WorkloadSpec, shard, shards int, opts ...destset.RunnerOption) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	sink := destset.NewJSONLObserver(&buf)
	all := append([]destset.RunnerOption{destset.WithObserver(sink.Observe)}, opts...)
	if shards > 1 {
		all = append(all, destset.WithShard(shard, shards))
	}
	runner := destset.NewRunner(engines, workloads, all...)
	plan, err := runner.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteManifest(plan.Manifest(shard, shards)); err != nil {
		t.Fatal(err)
	}
	if _, err := runner.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestMergeObservationsReassemblesFullRun merges shard JSONL streams
// and requires byte-identity with the unsharded parallelism-1 stream.
func TestMergeObservationsReassemblesFullRun(t *testing.T) {
	engines := []destset.EngineSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
		destset.SpecForPolicy(destset.Owner),
	}
	workloads := []destset.WorkloadSpec{
		{Name: "oltp", Warm: 300, Measure: 300},
		{Name: "ocean", Warm: 300, Measure: 300},
	}
	seeds := destset.WithSeeds(3, 4)

	full := shardJSONL(t, engines, workloads, 0, 1, seeds, destset.WithParallelism(1))
	s0 := shardJSONL(t, engines, workloads, 0, 2, seeds)
	s1 := shardJSONL(t, engines, workloads, 1, 2, seeds)

	var merged bytes.Buffer
	if err := destset.MergeObservations(&merged, bytes.NewReader(s0.Bytes()), bytes.NewReader(s1.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged.Bytes(), full.Bytes()) {
		t.Errorf("merged stream differs from unsharded stream:\n%s\nvs\n%s", merged.Bytes(), full.Bytes())
	}
}

// TestMergeObservationsEmptyManifestedShard pins the degenerate split:
// with more shards than plan cells, the surplus shards' files hold a
// manifest and no records — and the merge must accept them, since every
// cell is still covered. The merged stream stays byte-identical to the
// unsharded run.
func TestMergeObservationsEmptyManifestedShard(t *testing.T) {
	engines := []destset.EngineSpec{{Protocol: destset.ProtocolSnooping}, {Protocol: destset.ProtocolDirectory}}
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 200, Measure: 200}}

	// 2 cells split 3 ways: shard 2 owns nothing.
	full := shardJSONL(t, engines, workloads, 0, 1, destset.WithParallelism(1))
	s0 := shardJSONL(t, engines, workloads, 0, 3)
	s1 := shardJSONL(t, engines, workloads, 1, 3)
	s2 := shardJSONL(t, engines, workloads, 2, 3)
	if lines := bytes.Count(s2.Bytes(), []byte("\n")); lines != 1 {
		t.Fatalf("empty shard file has %d lines, want just the manifest", lines)
	}

	var merged bytes.Buffer
	if err := destset.MergeObservations(&merged, bytes.NewReader(s0.Bytes()), bytes.NewReader(s1.Bytes()), bytes.NewReader(s2.Bytes())); err != nil {
		t.Fatalf("merge with an empty-but-manifested shard: %v", err)
	}
	if !bytes.Equal(merged.Bytes(), full.Bytes()) {
		t.Error("merged stream with empty shard differs from the unsharded stream")
	}

	// The empty shard still counts toward coverage: dropping it is a
	// missing-shard error, not a quiet success.
	if err := destset.MergeObservations(&merged, bytes.NewReader(s0.Bytes()), bytes.NewReader(s1.Bytes())); err == nil {
		t.Error("merge without the empty shard should report it missing")
	}
}

// TestMergeObservationsRefusals pins the refusal matrix: mismatched
// plan fingerprints, missing and duplicate shards, manifest-less files
// and foreign records are all errors.
func TestMergeObservationsRefusals(t *testing.T) {
	engines := []destset.EngineSpec{{Protocol: destset.ProtocolSnooping}, {Protocol: destset.ProtocolDirectory}}
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 200, Measure: 200}}
	s0 := shardJSONL(t, engines, workloads, 0, 2)
	s1 := shardJSONL(t, engines, workloads, 1, 2)

	// A different sweep (different scale -> different fingerprint).
	other := shardJSONL(t, engines, []destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 100}}, 1, 2)

	var out bytes.Buffer
	check := func(name, wantSub string, ins ...*bytes.Buffer) {
		t.Helper()
		readers := make([]io.Reader, len(ins))
		for i, b := range ins {
			readers[i] = bytes.NewReader(b.Bytes())
		}
		out.Reset()
		err := destset.MergeObservations(&out, readers...)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: err = %v, want %q", name, err, wantSub)
		}
	}
	check("mismatched fingerprints", "refusing to merge", s0, other)
	check("missing shard", "missing", s0)
	check("duplicate shard", "twice", s0, s0)

	var noManifest bytes.Buffer
	noManifest.WriteString("{\"Engine\":\"snooping\",\"Workload\":\"oltp\",\"Seed\":1}\n")
	check("manifest-less file", "not a shard manifest", &noManifest)

	// A record naming a cell outside the plan.
	lines := bytes.SplitN(s0.Bytes(), []byte("\n"), 2)
	foreign := bytes.NewBuffer(append(append([]byte(nil), lines[0]...), '\n'))
	foreign.WriteString("{\"Engine\":\"snooping\",\"Workload\":\"zzz\",\"Seed\":1}\n")
	check("foreign record", "not in the plan", foreign, s1)

	// A shard file with two cells' lines swapped.
	fullLines := bytes.Split(bytes.TrimSpace(shardJSONL(t, engines, workloads, 0, 1).Bytes()), []byte("\n"))
	swapped := bytes.NewBuffer(bytes.Join([][]byte{fullLines[0], fullLines[2], fullLines[1], nil}, []byte("\n")))
	check("swapped cells", "not in plan order", swapped)

	// A manifest whose cells do not hash to its plan fingerprint.
	var m destset.ShardManifest
	if err := json.Unmarshal(lines[0], &m); err != nil {
		t.Fatal(err)
	}
	m.Cells[0].Fingerprint = strings.Repeat("0", 32)
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	forged := bytes.NewBuffer(append(raw, '\n'))
	forged.Write(lines[1])
	check("forged manifest cells", "does not match its cells", forged, s1)

	// An interrupted shard: manifest-valid but a cell never streamed.
	truncated := bytes.NewBuffer(append(append([]byte(nil), lines[0]...), '\n'))
	check("incomplete shard", "no records", truncated, s1)

	// Same specs, different observation granularity: different streams,
	// so the fingerprints must refuse the merge.
	finer := shardJSONL(t, engines, workloads, 1, 2, destset.WithInterval(50))
	check("mismatched interval", "refusing to merge", s0, finer)
}
