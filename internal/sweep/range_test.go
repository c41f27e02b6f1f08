package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"destset/internal/coherence"
	"destset/internal/dataset"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/trace"
	"destset/internal/workload"
)

// rangeEngines are the engines the range-replay tests run: the two
// stateless engines, multicast over a bank that takes the bank step and
// over one that takes the per-node path, and PredictiveDirectory, which
// takes ProcessRange's Process fallback.
func rangeEngines() []Engine {
	bank := func(pol predictor.Policy, nodes int) []predictor.Predictor {
		return predictor.NewBank(predictor.DefaultConfig(pol, nodes))
	}
	return []Engine{
		{Label: "snooping", New: func(nodes int) (protocol.Engine, func(), error) { return protocol.NewSnooping(nodes), nil, nil }},
		{Label: "directory", New: func(int) (protocol.Engine, func(), error) { return protocol.NewDirectory(), nil, nil }},
		{Label: "group", New: func(nodes int) (protocol.Engine, func(), error) {
			return protocol.NewMulticast(bank(predictor.Group, nodes)), nil, nil
		}},
		{Label: "minimal", New: func(nodes int) (protocol.Engine, func(), error) {
			return protocol.NewMulticast(bank(predictor.Minimal, nodes)), nil, nil
		}},
		{Label: "predictive-directory", New: func(nodes int) (protocol.Engine, func(), error) {
			return protocol.NewPredictiveDirectory(bank(predictor.Owner, nodes)), nil, nil
		}},
	}
}

// generate records n misses of a preset at seed 1.
func generate(t *testing.T, name string, n int) *dataset.Dataset {
	t.Helper()
	p, err := workload.Preset(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(p, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// replayOf is a workload over ds at the given scale.
func replayOf(ds *dataset.Dataset, warm, measure int) Workload {
	return Workload{
		Name:    ds.Params().Name,
		Warm:    warm,
		Measure: measure,
		Dataset: func(uint64) (*dataset.Dataset, error) { return ds, nil },
	}
}

// runObserved runs one cell and returns its result and observations.
func runObserved(t *testing.T, e Engine, w Workload, interval int) (Result, []Observation) {
	t.Helper()
	var obs []Observation
	res, err := RunCell(context.Background(), e, w, 1, interval, func(o Observation) { obs = append(obs, o) })
	if err != nil {
		t.Fatal(err)
	}
	return *res, obs
}

// perMissCell is the reference RunCell: one Replayer.Next and one
// Process call per miss, an observation whenever the interval fills.
func perMissCell(t *testing.T, e Engine, w Workload, interval int) (Result, []Observation) {
	t.Helper()
	ds, err := w.Dataset(1)
	if err != nil {
		t.Fatal(err)
	}
	eng, _, err := e.New(ds.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	st := ds.Replay()
	for i := 0; i < w.Warm; i++ {
		eng.Process(st.Next())
	}
	var obs []Observation
	var cum, cur protocol.Totals
	flush := func() {
		obs = append(obs, Observation{Engine: e.Label, Workload: w.Name, Seed: 1, Interval: len(obs), Totals: cur, Cumulative: cum})
		cur = protocol.Totals{}
	}
	for i := 0; i < w.Measure; i++ {
		r := eng.Process(st.Next())
		cum.Add(r)
		cur.Add(r)
		if interval > 0 && cur.Misses >= uint64(interval) {
			flush()
		}
	}
	if cur.Misses > 0 || interval <= 0 {
		flush()
	}
	return Result{Engine: e.Label, EngineName: eng.Name(), Workload: w.Name, Seed: 1, Totals: cum}, obs
}

// TestRangeReplayMatchesPerMiss: a cell replaying a dataset a column
// range at a time gives the observations and the result of the per-miss
// reference, for every engine kind, with and without warm-up, at
// interval lengths on and around the chunk length, a whole measurement
// and one more.
func TestRangeReplayMatchesPerMiss(t *testing.T) {
	const measure = 4100
	ds := generate(t, "oltp", 5001+measure)
	for _, warm := range []int{0, 5001} {
		for _, interval := range []int{0, 1, 7, 2047, 2048, 2049, measure, measure + 1} {
			for _, e := range rangeEngines() {
				name := fmt.Sprintf("%s warm %d interval %d", e.Label, warm, interval)
				want, wantObs := perMissCell(t, e, replayOf(ds, warm, measure), interval)
				got, gotObs := runObserved(t, e, replayOf(ds, warm, measure), interval)
				if got != want {
					t.Errorf("%s: %+v, per-miss reference %+v", name, got, want)
				}
				if !slices.Equal(gotObs, wantObs) {
					t.Errorf("%s: %d observations, per-miss reference %d, or they differ", name, len(gotObs), len(wantObs))
				}
				if want.Totals.Misses != measure {
					t.Errorf("%s: %d misses measured", name, want.Totals.Misses)
				}
			}
		}
	}
}

// cancelAt is an engine that cancels a context on its n-th miss and
// counts every miss it is given.
type cancelAt struct {
	protocol.Engine
	n, calls int
	cancel   context.CancelFunc
}

func (c *cancelAt) Process(rec trace.Record, mi coherence.MissInfo) protocol.Result {
	c.calls++
	if c.calls == c.n {
		c.cancel()
	}
	return c.Engine.Process(rec, mi)
}

// TestRunCellCancelsWithinAChunk: a cell whose context ends returns
// ctx.Err() before it starts another chunk, in warm-up and in the
// measured region.
func TestRunCellCancelsWithinAChunk(t *testing.T) {
	const warm, measure = 5001, 9000
	ds := generate(t, "oltp", warm+measure)
	for _, at := range []int{1, 3000, warm + 1, warm + 4097} {
		ctx, cancel := context.WithCancel(context.Background())
		eng := &cancelAt{Engine: protocol.NewDirectory(), n: at, cancel: cancel}
		e := Engine{Label: "cancel", New: func(int) (protocol.Engine, func(), error) { return eng, nil, nil }}
		res, err := RunCell(ctx, e, replayOf(ds, warm, measure), 1, 1000, func(Observation) {})
		cancel()
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled at miss %d: got %v, %v; want context.Canceled", at, res, err)
		}
		if after := eng.calls - at; after >= ctxCheckStride {
			t.Errorf("cancelled at miss %d: %d more misses ran, want fewer than %d", at, after, ctxCheckStride)
		}
	}
}

// TestRunCellAllocationsDoNotGrow: a whole cell allocates no more at 40k
// misses than at 4k, so nothing in the replay allocates per miss or per
// chunk, on the range methods or the Process fallback. The runtime's own
// allocations let the count wander by up to three under -race, so four
// more are allowed; one allocation per chunk would add 17 and one per
// miss 36,000.
func TestRunCellAllocationsDoNotGrow(t *testing.T) {
	small, large := generate(t, "oltp", 4_000), generate(t, "oltp", 40_000)
	runtime.GC()
	perCell := func(e Engine, ds *dataset.Dataset) float64 {
		w := replayOf(ds, ds.Len()/2, ds.Len()-ds.Len()/2)
		return testing.AllocsPerRun(3, func() {
			if _, err := RunCell(context.Background(), e, w, 1, 0, func(Observation) {}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, e := range rangeEngines() {
		if a, b := perCell(e, small), perCell(e, large); b > a+4 {
			t.Errorf("%s: a cell allocates %.0f times at 4k misses and %.0f at 40k", e.Label, a, b)
		}
	}
}

// gcPredictor forces a garbage collection, and gives its cleanups time
// to run, on every 256th prediction.
type gcPredictor struct {
	predictor.Predictor
	calls *int
	check func()
}

func (p gcPredictor) Predict(q predictor.Query) nodeset.Set {
	if *p.calls++; *p.calls%256 == 0 {
		runtime.GC()
		time.Sleep(time.Millisecond)
		p.check()
	}
	return p.Predictor.Predict(q)
}

// gcEngine forces a garbage collection, and gives its cleanups time to
// run, on every 256th miss. It hides its type, so ProcessRange gives it
// the Process fallback.
type gcEngine struct {
	protocol.Engine
	calls int
	check func()
}

func (e *gcEngine) Process(rec trace.Record, mi coherence.MissInfo) protocol.Result {
	if e.calls++; e.calls%256 == 0 {
		runtime.GC()
		time.Sleep(time.Millisecond)
		e.check()
	}
	return e.Engine.Process(rec, mi)
}

// TestRangeReplaySurvivesGCOnMmap is the live-range regression test: a
// cell replays an mmap-backed dataset that nothing but the cell's
// cursor holds, while its engine forces collections inside every chunk.
// The columns of the range being read pin the dataset, so the mapping
// must stay mapped until the cell is done, and the cell must finish with
// the Totals of a run over the generated dataset. The multicast engine's
// bank forces them from the range method, the hidden engine from the
// Process fallback.
func TestRangeReplaySurvivesGCOnMmap(t *testing.T) {
	const warm, measure = 3000, 5000
	p, err := workload.Preset("ocean", 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dataset.Generate(p, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	key := dataset.KeyOf(p, warm, measure)
	if err := dataset.WriteFile(key.Path(dir), ref); err != nil {
		t.Fatal(err)
	}
	s := dataset.NewStore()
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	reading := false // a cell is replaying the mapped dataset
	check := func() {
		if reading && s.Stats().MappedBytes == 0 {
			panic("the dataset was unmapped while a cell was reading its columns")
		}
	}
	mmapped := Workload{Name: "ocean", Warm: warm, Measure: measure,
		Dataset: func(uint64) (*dataset.Dataset, error) {
			ds, err := s.Get(key, nil)
			if err != nil {
				return nil, err
			}
			s.Purge() // the cell is all that holds the dataset now
			return ds, nil
		}}
	cfg := predictor.DefaultConfig(predictor.Group, p.Nodes)
	engines := []Engine{
		{Label: "multicast", New: func(int) (protocol.Engine, func(), error) {
			calls := new(int)
			bank := predictor.NewBank(cfg)
			for i, m := range bank {
				bank[i] = gcPredictor{Predictor: m, calls: calls, check: check}
			}
			return protocol.NewMulticast(bank), nil, nil
		}},
		{Label: "hidden", New: func(int) (protocol.Engine, func(), error) {
			return &gcEngine{Engine: protocol.NewMulticast(predictor.NewBank(cfg)), check: check}, nil, nil
		}},
	}
	for _, e := range engines {
		reading = true
		got, err := RunCell(context.Background(), e, mmapped, 1, 0, func(Observation) {})
		reading = false
		if err != nil {
			t.Fatal(err)
		}
		if s.Stats().MapHits == 0 {
			t.Skip("no mmap path on this platform")
		}
		// With the cell done, nothing holds the dataset: the mapping goes.
		for deadline := time.Now().Add(10 * time.Second); s.Stats().MappedBytes != 0; {
			if time.Now().After(deadline) {
				t.Fatalf("%s: MappedBytes = %d, never drained after the cell finished", e.Label, s.Stats().MappedBytes)
			}
			runtime.GC()
			time.Sleep(10 * time.Millisecond)
		}
		want, _ := runObserved(t, e, replayOf(ref, warm, measure), 0)
		if got.Totals != want.Totals {
			t.Errorf("%s: mmap-backed %+v, generated %+v", e.Label, got.Totals, want.Totals)
		}
	}
}
