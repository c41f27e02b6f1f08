package destset_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"destset"
)

// streamPlan builds the plan the stream-merge tests share.
func streamPlan(t *testing.T, engines []destset.EngineSpec, workloads []destset.WorkloadSpec, opts ...destset.RunnerOption) *destset.SweepPlan {
	t.Helper()
	plan, err := destset.NewRunner(engines, workloads, opts...).Plan()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestMergeStreamsMatchesMergeObservations is the external-merge
// equivalence pin: shard files are plan-ordered streams at any
// parallelism, so MergeStreams over them must produce byte-identical
// output to MergeObservations — and so to the unsharded run, whose file
// is itself the same at parallelism 1 and 8.
func TestMergeStreamsMatchesMergeObservations(t *testing.T) {
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

	par8 := destset.WithParallelism(8)
	full := shardJSONL(t, engines, workloads, 0, 1, seeds, destset.WithParallelism(1))
	if full8 := shardJSONL(t, engines, workloads, 0, 1, seeds, par8); !bytes.Equal(full8.Bytes(), full.Bytes()) {
		t.Errorf("parallelism-8 stream differs from parallelism 1:\n%s\nvs\n%s", full8.Bytes(), full.Bytes())
	}
	s0 := shardJSONL(t, engines, workloads, 0, 3, seeds, par8)
	s1 := shardJSONL(t, engines, workloads, 1, 3, seeds, par8)
	s2 := shardJSONL(t, engines, workloads, 2, 3, seeds, par8)
	plan := streamPlan(t, engines, workloads, seeds)

	var inMemory bytes.Buffer
	if err := destset.MergeObservations(&inMemory,
		bytes.NewReader(s0.Bytes()), bytes.NewReader(s1.Bytes()), bytes.NewReader(s2.Bytes())); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	if err := plan.MergeStreams(&streamed,
		bytes.NewReader(s0.Bytes()), bytes.NewReader(s1.Bytes()), bytes.NewReader(s2.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), inMemory.Bytes()) {
		t.Errorf("MergeStreams output differs from MergeObservations:\n%s\nvs\n%s", streamed.Bytes(), inMemory.Bytes())
	}
	if !bytes.Equal(streamed.Bytes(), full.Bytes()) {
		t.Error("MergeStreams output differs from the unsharded parallelism-1 stream")
	}

	// A single concatenated plan-ordered stream merges identically — the
	// degenerate 1-way merge the coordinator uses for huge range counts.
	var one bytes.Buffer
	if err := plan.MergeStreams(&one, io.MultiReader(
		bytes.NewReader(full.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), full.Bytes()) {
		t.Error("1-way MergeStreams is not the identity")
	}
}

// TestMergeStreamsRefusals pins the streaming validation: out-of-order
// streams, cells spanning two streams, holes, and foreign records are
// errors, never silent mixes.
func TestMergeStreamsRefusals(t *testing.T) {
	engines := []destset.EngineSpec{{Protocol: destset.ProtocolSnooping}, {Protocol: destset.ProtocolDirectory}}
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 200, Measure: 200}}
	full := shardJSONL(t, engines, workloads, 0, 1, destset.WithParallelism(1))
	plan := streamPlan(t, engines, workloads)

	// Split the full stream's records (manifest line dropped) per line.
	lines := strings.Split(strings.TrimSpace(full.String()), "\n")[1:]
	if len(lines) != plan.Len() {
		t.Fatalf("test sweep has %d records, want one per cell (%d)", len(lines), plan.Len())
	}

	var out bytes.Buffer
	check := func(name, wantSub string, parts ...string) {
		t.Helper()
		readers := make([]io.Reader, len(parts))
		for i, p := range parts {
			readers[i] = strings.NewReader(p)
		}
		out.Reset()
		err := plan.MergeStreams(&out, readers...)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: err = %v, want %q", name, err, wantSub)
		}
	}

	check("no streams", "no streams")
	check("out-of-order stream", "not in plan order", lines[0]+"\n"+lines[1]+"\n"+lines[0]+"\n")
	check("swapped cells", "not in plan order", lines[1]+"\n"+lines[0]+"\n")
	check("duplicate cell across streams", "span streams", lines[0]+"\n"+lines[1]+"\n", lines[0]+"\n")
	check("hole", "no records", lines[1]+"\n")
	check("trailing hole", "no records", lines[0]+"\n")
	check("foreign record", "not in the plan",
		lines[0]+"\n{\"Engine\":\"snooping\",\"Workload\":\"zzz\",\"Seed\":9}\n")
	check("garbage line", "invalid character", "{not json}\n")
}
