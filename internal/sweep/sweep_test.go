package sweep

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"destset/internal/dataset"
	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/workload"
)

func testEngines() []Engine {
	return []Engine{
		{Label: "snooping", New: func(nodes int) (protocol.Engine, func(), error) {
			return protocol.NewSnooping(nodes), nil, nil
		}},
		{Label: "directory", New: func(nodes int) (protocol.Engine, func(), error) {
			return protocol.NewDirectory(), nil, nil
		}},
		{Label: "owner", New: func(nodes int) (protocol.Engine, func(), error) {
			return protocol.NewMulticast(predictor.NewBank(predictor.DefaultConfig(predictor.Owner, nodes))), nil, nil
		}},
	}
}

func testWorkloads(t *testing.T, names []string, warm, measure int) []Workload {
	t.Helper()
	out := make([]Workload, 0, len(names))
	for _, name := range names {
		out = append(out, Workload{
			Name:    name,
			Warm:    warm,
			Measure: measure,
			Dataset: func(seed uint64) (*dataset.Dataset, error) {
				ps, err := workload.Preset(name, seed)
				if err != nil {
					return nil, err
				}
				return dataset.Generate(ps, warm, measure)
			},
		})
	}
	return out
}

// runCells executes the engines × workloads × seeds cross-product
// through the executor, the way the facade's Runner does.
func runCells(ctx context.Context, engines []Engine, workloads []Workload, seeds []uint64, x Exec[Result, Observation], interval int) ([]Result, error) {
	cells := Cross(len(workloads), len(engines), seeds)
	x.Total = len(cells)
	x.Prewarm = func(i int) PrewarmJob { return PrewarmJob{W: cells[i].W, Seed: cells[i].Seed} }
	x.Compute = func(ctx context.Context, i int, emit func(Observation)) (*Result, error) {
		c := cells[i]
		return RunCell(ctx, engines[c.S], workloads[c.W], c.Seed, interval, emit)
	}
	return Execute(ctx, x)
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	engines := testEngines()
	workloads := testWorkloads(t, []string{"oltp", "ocean"}, 2000, 2000)
	seeds := []uint64{1, 2}

	var serialObs, parallelObs []Observation
	serial, err := runCells(context.Background(), engines, workloads, seeds, Exec[Result, Observation]{
		Parallelism: 1,
		Observe:     func(o Observation) { serialObs = append(serialObs, o) },
	}, 500)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runCells(context.Background(), engines, workloads, seeds, Exec[Result, Observation]{
		Parallelism: 6,
		Observe:     func(o Observation) { parallelObs = append(parallelObs, o) },
	}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(engines)*len(workloads)*len(seeds) {
		t.Fatalf("got %d results", len(serial))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel results diverge from serial:\n%v\nvs\n%v", serial, parallel)
	}
	// Observations arrive in plan order at any parallelism.
	if !reflect.DeepEqual(serialObs, parallelObs) {
		t.Error("parallel observation sequence diverges from serial")
	}
	// Workload-major ordering: first cells all belong to the first workload.
	for i, r := range serial[:len(engines)*len(seeds)] {
		if r.Workload != "oltp" {
			t.Errorf("result %d workload %q, want oltp-first ordering", i, r.Workload)
		}
	}
}

func TestRunObservationsCoverMeasurement(t *testing.T) {
	engines := testEngines()[:1]
	workloads := testWorkloads(t, []string{"oltp"}, 500, 2500)
	var obs []Observation
	_, err := runCells(context.Background(), engines, workloads, []uint64{1}, Exec[Result, Observation]{
		Observe: func(o Observation) { obs = append(obs, o) },
	}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 3 {
		t.Fatalf("got %d observations, want 3 (1000+1000+500)", len(obs))
	}
	var misses uint64
	for i, o := range obs {
		if o.Interval != i {
			t.Errorf("observation %d has interval index %d", i, o.Interval)
		}
		misses += o.Totals.Misses
	}
	if misses != 2500 {
		t.Errorf("observations cover %d misses, want 2500", misses)
	}
	last := obs[len(obs)-1]
	if last.Cumulative.Misses != 2500 {
		t.Errorf("final cumulative misses %d", last.Cumulative.Misses)
	}
}

func TestRunCancellationReturnsPartialResults(t *testing.T) {
	engines := testEngines()
	workloads := testWorkloads(t, []string{"oltp"}, 50_000, 200_000)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var (
		res []Result
		err error
	)
	go func() {
		defer close(done)
		res, err = runCells(ctx, engines, workloads, []uint64{1}, Exec[Result, Observation]{Parallelism: 2}, 0)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if len(res) >= len(engines) {
		t.Errorf("expected partial results, got all %d", len(res))
	}
}

func TestRunPropagatesCellErrors(t *testing.T) {
	bad := []Engine{{Label: "bad", New: func(int) (protocol.Engine, func(), error) {
		return nil, nil, errors.New("boom")
	}}}
	workloads := testWorkloads(t, []string{"oltp"}, 10, 10)
	_, err := runCells(context.Background(), bad, workloads, []uint64{1}, Exec[Result, Observation]{}, 0)
	if err == nil || !contains(err.Error(), "boom") {
		t.Errorf("err = %v, want cell error", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestForEach(t *testing.T) {
	out := make([]int, 100)
	err := ForEach(context.Background(), len(out), 8, func(i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	var calls atomic.Int64
	err = ForEach(context.Background(), 1000, 4, func(i int) error {
		calls.Add(1)
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := calls.Load(); n == 1000 {
		t.Errorf("ForEach did not stop early (ran all %d)", n)
	}
}

// execInts runs an n-cell plan whose cell i computes fn(ctx, i) and
// emits the result as its one observation.
func execInts(ctx context.Context, n, parallelism int, observe func(int), fn func(ctx context.Context, i int) (*int, error)) ([]int, error) {
	return Execute(ctx, Exec[int, int]{
		Total:       n,
		Parallelism: parallelism,
		Observe:     observe,
		Compute: func(ctx context.Context, i int, emit func(int)) (*int, error) {
			res, err := fn(ctx, i)
			if res != nil && err == nil {
				emit(*res)
			}
			return res, err
		},
	})
}

func TestExecuteFailFastCancelsInflightCells(t *testing.T) {
	// One cell fails immediately; the other, long-running cell must see
	// the derived context cancel and abort instead of running out its
	// full (effectively unbounded) loop.
	aborted := make(chan struct{})
	res, err := execInts(context.Background(), 2, 2, nil, func(ctx context.Context, i int) (*int, error) {
		if i == 0 {
			return nil, errors.New("boom")
		}
		select {
		case <-ctx.Done():
			close(aborted)
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			t.Error("in-flight cell was not cancelled after the sibling's error")
			return nil, nil
		}
	})
	select {
	case <-aborted:
	default:
		// i==1 may not have started before the error cancelled the feed;
		// either way Execute must report the real error.
	}
	if err == nil || !contains(err.Error(), "boom") {
		t.Errorf("err = %v, want the failing cell's error", err)
	}
	if len(res) != 0 {
		t.Errorf("results = %v, want none", res)
	}
}

func TestExecuteOrderAndSkippedSlots(t *testing.T) {
	var seen []int
	res, err := execInts(context.Background(), 5, 3, func(o int) { seen = append(seen, o) }, func(_ context.Context, i int) (*int, error) {
		if i == 2 {
			return nil, nil // abandoned slot
		}
		v := i * 10
		return &v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 10, 30, 40}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("res = %v, want %v (compaction must keep index order)", res, want)
	}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("observed %v, want %v", seen, want)
	}
}

// TestExecuteDeliversInPlanOrder pins the delivery contract: cells that
// complete in reverse plan order, all in flight at once, are observed
// in plan order.
func TestExecuteDeliversInPlanOrder(t *testing.T) {
	const n = 6
	done := make([]chan struct{}, n+1)
	for i := range done {
		done[i] = make(chan struct{})
	}
	close(done[n])
	var seen []int
	res, err := execInts(context.Background(), n, n, func(o int) { seen = append(seen, o) }, func(_ context.Context, i int) (*int, error) {
		<-done[i+1]
		defer close(done[i])
		return &i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4, 5}
	if !reflect.DeepEqual(seen, want) || !reflect.DeepEqual(res, want) {
		t.Errorf("observed %v, results %v; want %v for both", seen, res, want)
	}
}

// TestExecuteCancellationDeliversCompletedInOrder: after cancellation
// the observer has seen every completed cell, in strictly increasing
// plan order, and nothing of the cell that did not complete.
func TestExecuteCancellationDeliversCompletedInOrder(t *testing.T) {
	const n = 6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cell 0 completes first and cell 1 stalls until cancelled; cells 5,
	// 4, 3 and 2 then complete in that order, and cell 2 cancels the
	// sweep as it completes.
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	var seen []int
	res, err := execInts(ctx, n, n, func(o int) { seen = append(seen, o) }, func(ctx context.Context, i int) (*int, error) {
		switch {
		case i == 1:
			<-ctx.Done()
			return nil, ctx.Err()
		case i == n-1:
			<-done[0]
		case i >= 2:
			<-done[i+1]
		}
		defer close(done[i])
		if i == 2 {
			cancel()
		}
		return &i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	want := []int{0, 2, 3, 4, 5}
	if !reflect.DeepEqual(seen, want) || !reflect.DeepEqual(res, want) {
		t.Errorf("observed %v, results %v; want %v for both", seen, res, want)
	}
}

// TestExecuteStoreHooksAndPrewarm: store hits replay their stored
// streams in their own slots and are neither prewarmed nor computed;
// computed cells are prewarmed once per source and offered to Store
// with every observation they emitted.
func TestExecuteStoreHooksAndPrewarm(t *testing.T) {
	for _, par := range []int{1, 4} {
		var (
			mu       sync.Mutex
			seen     []int
			prepared []PrewarmJob
			stored   = map[int][]int{}
		)
		res, err := Execute(context.Background(), Exec[int, int]{
			Total:       6,
			Parallelism: par,
			Observe:     func(o int) { seen = append(seen, o) },
			Lookup: func(i int) (*int, []int) {
				if i%2 == 1 {
					return nil, nil
				}
				return &i, []int{i, i}
			},
			Store: func(i, res int, obs []int) {
				mu.Lock()
				defer mu.Unlock()
				stored[i] = obs
			},
			Prewarm: func(i int) PrewarmJob { return PrewarmJob{W: i / 4} },
			Prepare: func(j PrewarmJob) error {
				mu.Lock()
				defer mu.Unlock()
				prepared = append(prepared, j)
				return nil
			},
			Compute: func(_ context.Context, i int, emit func(int)) (*int, error) {
				if i%2 == 0 {
					t.Errorf("store hit %d computed", i)
				}
				emit(i)
				emit(-i)
				return &i, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(res, want) {
			t.Errorf("parallelism %d: results %v, want %v", par, res, want)
		}
		if want := []int{0, 0, 1, -1, 2, 2, 3, -3, 4, 4, 5, -5}; !reflect.DeepEqual(seen, want) {
			t.Errorf("parallelism %d: observed %v, want %v", par, seen, want)
		}
		if want := map[int][]int{1: {1, -1}, 3: {3, -3}, 5: {5, -5}}; !reflect.DeepEqual(stored, want) {
			t.Errorf("parallelism %d: stored %v, want %v", par, stored, want)
		}
		if len(prepared) != 2 {
			t.Errorf("parallelism %d: prepared %v, want each of the two sources once", par, prepared)
		}
	}
}

// TestExecuteReleasesEachSourceOnce: Release is called exactly once per
// source of the computed cells, only once none of its cells is running
// and after its last computed cell; never for a source whose cells were
// all store hits; and, on cancellation, once for every source whose
// cells did not all run.
func TestExecuteReleasesEachSourceOnce(t *testing.T) {
	const n = 12
	source := func(i int) PrewarmJob { return PrewarmJob{W: i / 3} }
	hit := func(i int) bool { return source(i).W == 1 || i == 6 }
	computedCells := map[PrewarmJob]int{{W: 0}: 3, {W: 2}: 2, {W: 3}: 3}
	for _, par := range []int{1, 4} {
		for _, cancelAt := range []int{-1, 7} {
			ctx, cancel := context.WithCancel(context.Background())
			var (
				mu       sync.Mutex
				running  = map[PrewarmJob]int{}
				done     = map[PrewarmJob]int{}
				released = map[PrewarmJob]int{}
			)
			_, err := Execute(ctx, Exec[int, int]{
				Total:       n,
				Parallelism: par,
				Lookup: func(i int) (*int, []int) {
					if hit(i) {
						return &i, nil
					}
					return nil, nil
				},
				Prewarm: source,
				Release: func(j PrewarmJob) {
					mu.Lock()
					defer mu.Unlock()
					released[j]++
					if running[j] != 0 {
						t.Errorf("par %d cancel %d: source %v released with %d cells running", par, cancelAt, j, running[j])
					}
					if cancelAt < 0 && done[j] != computedCells[j] {
						t.Errorf("par %d: source %v released after %d of its %d cells", par, j, done[j], computedCells[j])
					}
				},
				Compute: func(ctx context.Context, i int, _ func(int)) (*int, error) {
					j := source(i)
					mu.Lock()
					if released[j] != 0 {
						t.Errorf("par %d cancel %d: cell %d computed after its source was released", par, cancelAt, i)
					}
					running[j]++
					mu.Unlock()
					defer func() {
						mu.Lock()
						running[j]--
						done[j]++
						mu.Unlock()
					}()
					if i == cancelAt {
						cancel()
						return nil, ctx.Err()
					}
					return &i, nil
				},
			})
			cancel()
			if cancelAt < 0 && err != nil {
				t.Fatal(err)
			}
			want := map[PrewarmJob]int{{W: 0}: 1, {W: 2}: 1, {W: 3}: 1}
			if !reflect.DeepEqual(released, want) {
				t.Errorf("par %d cancel %d: released %v, want %v", par, cancelAt, released, want)
			}
		}
	}
}

// TestSubsetIndices pins the executor's cell-list check: nil selects
// every cell, a valid list passes through, an empty list selects none,
// and out-of-range, unsorted or duplicate lists fail.
func TestSubsetIndices(t *testing.T) {
	idx, err := subsetIndices(5, nil)
	if err != nil || !reflect.DeepEqual(idx, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("nil subset = (%v, %v), want every cell", idx, err)
	}
	idx, err = subsetIndices(5, []int{0, 2, 4})
	if err != nil || !reflect.DeepEqual(idx, []int{0, 2, 4}) {
		t.Fatalf("explicit subset = (%v, %v)", idx, err)
	}
	if idx, err := subsetIndices(5, []int{}); err != nil || len(idx) != 0 {
		t.Errorf("empty subset = (%v, %v), want empty run", idx, err)
	}
	for name, bad := range map[string][]int{
		"out of range": {0, 5},
		"negative":     {-1},
		"unsorted":     {2, 1},
		"duplicate":    {1, 1},
	} {
		if _, err := subsetIndices(5, bad); err == nil {
			t.Errorf("%s subset accepted", name)
		}
	}
}
