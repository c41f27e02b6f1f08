package destset

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"destset/internal/memtest"
	"destset/internal/sweep"
)

// recycleEngines names the test engines RegisterEngine adds, one per
// run, so that -count above 1 registers no name twice.
var recycleEngines atomic.Int64

// counts is a bank's TableStats, member by member.
type counts [][5]uint64

// countsOf reads every member's TableStats.
func countsOf(bank []Predictor) counts {
	out := make(counts, len(bank))
	for i, p := range bank {
		l, h, a, e, live := p.(interface {
			TableStats() (lookups, hits, allocs, evictions uint64, live int)
		}).TableStats()
		out[i] = [5]uint64{l, h, a, e, uint64(live)}
	}
	return out
}

// keptBank is a bank a registered engine factory kept, and its counts
// when its cell last used the engine.
type keptBank struct {
	bank []Predictor
	left counts
}

// keepingEngine is a multicast engine that notes its bank's counts each
// time the cell asks its name, which RunCell does last.
type keepingEngine struct {
	Engine
	kept *keptBank
}

func (e keepingEngine) Name() string {
	e.kept.left = countsOf(e.kept.bank)
	return e.Engine.Name()
}

// TestUserFactoryBanksAreNeverRecycled: a RegisterEngine factory that
// keeps every bank its newBank returns finds each one, after the sweep,
// as its cell left it: never reset, never handed to another cell. The
// sweep runs built-in multicast cells of the same configuration beside
// them, whose banks are recycled, with the collector off so that no
// recycled bank is freed before a later cell could take it.
func TestUserFactoryBanksAreNeverRecycled(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var (
		mu   sync.Mutex
		kept []*keptBank
	)
	name := fmt.Sprintf("keeps-its-bank-%d", recycleEngines.Add(1))
	err := RegisterEngine(name, func(_ int, newBank func() []Predictor) (Engine, error) {
		k := &keptBank{bank: newBank()}
		mu.Lock()
		kept = append(kept, k)
		mu.Unlock()
		return keepingEngine{NewMulticastEngine(k.bank), k}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var engines []EngineSpec
	for _, p := range []Policy{Group, Owner} {
		builtin := SpecForPolicy(p)
		engines = append(engines, builtin,
			EngineSpec{Protocol: name, Policy: p, UsePolicy: true, Label: name + "+" + p.String()},
			builtin)
	}
	workloads := []WorkloadSpec{{Name: "oltp", Warm: 3000, Measure: 3000}, {Name: "ocean", Warm: 3000, Measure: 3000}}
	res, err := NewRunner(engines, workloads, WithSeeds(1, 2), WithParallelism(2)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * 2; len(kept) != want {
		t.Fatalf("the factory kept %d banks, want %d", len(kept), want)
	}
	seen := make(map[Predictor]bool)
	for i, k := range kept {
		if seen[k.bank[0]] {
			t.Errorf("bank %d was handed to a second cell", i)
		}
		seen[k.bank[0]] = true
		if k.left == nil || k.left[0][0] == 0 {
			t.Fatalf("bank %d: its cell never trained it", i)
		}
		if got := countsOf(k.bank); fmt.Sprint(got) != fmt.Sprint(k.left) {
			t.Errorf("bank %d changed after its cell: %v, left %v", i, got, k.left)
		}
	}
	// The two built-in specs of a policy share a label; their cells
	// agree, whichever banks they took over.
	byCell := make(map[string]Totals)
	for _, r := range res {
		key := fmt.Sprint(r.Engine, r.Workload, r.Seed)
		if prev, ok := byCell[key]; ok && prev != r.Totals {
			t.Errorf("%s on %s seed %d: %+v, then %+v", r.Engine, r.Workload, r.Seed, prev, r.Totals)
		}
		byCell[key] = r.Totals
	}
	if len(res) != 24 || len(byCell) != 16 {
		t.Errorf("%d results over %d distinct cells, want 24 over 16", len(res), len(byCell))
	}
}

// TestCancelledCellThenSameCell: a cell cancelled mid-measurement hands
// back a half-trained bank, and the same cell run next over it gives
// the Totals of an uncancelled run, for both engines that recycle.
func TestCancelledCellThenSameCell(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := []WorkloadSpec{{Name: "oltp", Warm: 4000, Measure: 4000}}
	for _, e := range []EngineSpec{
		SpecForPolicy(Group),
		{Protocol: ProtocolPredictiveDirectory, Policy: Owner, UsePolicy: true},
	} {
		want, err := NewRunner([]EngineSpec{e}, w).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		_, err = NewRunner([]EngineSpec{e}, w, WithParallelism(1), WithInterval(1000),
			WithObserver(func(Observation) { cancel() })).Run(ctx)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: cancelled run returned %v", e.DisplayLabel(), err)
		}
		got, err := NewRunner([]EngineSpec{e}, w).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Totals != want[0].Totals {
			t.Errorf("%s after a cancelled cell: %+v, want %+v", e.DisplayLabel(), got[0].Totals, want[0].Totals)
		}
	}
}

// TestTraceCellBankBytes: a multicast trace cell that follows a cell of
// the same predictor configuration takes over its bank, so the whole
// cell allocates under 64 KB; a new bank at the standout configuration
// is 2.2 to 5.4 MB. The collector is off while it measures, since the
// free list holds idle banks only weakly.
func TestTraceCellBankBytes(t *testing.T) {
	const maxCellBytes = 64 << 10
	ws, err := WorkloadSpec{Name: "oltp", Warm: 4000, Measure: 4000}.resolve(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Dataset(1); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Policy{Owner, BroadcastIfShared, Group, OwnerGroup} {
		e := SpecForPolicy(p).sweepEngine()
		got, _ := memtest.PerRunNoGC(1, func() {
			if _, err := sweep.RunCell(context.Background(), e, ws, 1, 0, func(Observation) {}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%v: second cell allocated %.0f bytes", p, got)
		if got > maxCellBytes {
			t.Errorf("%v: a second multicast cell allocated %.0f bytes, want under %d", p, got, maxCellBytes)
		}
	}
}
