package dataset

import (
	"testing"

	"destset/internal/memtest"
	"destset/internal/workload"
)

// TestReplayerNextAllocFree is the replay-path allocation budget: Next
// runs once per miss per sweep cell over shared datasets and must read
// straight out of the columns without allocating.
func TestReplayerNextAllocFree(t *testing.T) {
	d, err := Generate(testParams(t, 1), 2000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	r := d.Replay()
	if n := testing.AllocsPerRun(3000, func() {
		if r.Remaining() == 0 {
			r.Rewind()
		}
		r.Next()
	}); n != 0 {
		t.Errorf("Replayer.Next allocates %.1f/op, want 0", n)
	}
}

// TestGenerateAllocBudget: a second Generate of one configuration
// allocates its columns and block statistics (Bytes), its generator's
// units and a fixed slack for the rest of the generator (alias and
// stream tables, samplers, its access queue), the page rounding of the
// columns and what the race detector adds (60 KB at most). The oracle
// is the one the first Generate recycled, reset, and the Zipf tables
// are the first's; both are held only weakly, so this measures with the
// collector off (memtest.PerRunNoGC). A new oracle and new tables
// would add 5.1–8.1 MB at 20k+20k.
func TestGenerateAllocBudget(t *testing.T) {
	const warm, measure, slack = 20_000, 20_000, 256 << 10
	for _, name := range workload.PaperNames() {
		p, err := workload.Preset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		var d *Dataset
		got, _ := memtest.PerRunNoGC(2, func() { d, _ = Generate(p, warm, measure) })
		// A unit is its struct (96 B), its blocks, its group (at most
		// 16 B) and a pointer. The bound also allows 8 B a node for the
		// permutation that sampled the group, which sampleGroup keeps on
		// its stack.
		units := (p.SharedUnits + 3) * (96 + 8*p.BlocksPerUnit + 16 + 8*p.Nodes + 8)
		t.Logf("%s: a second Generate allocated %.0f B (%d B of columns and statistics)", name, got, d.Bytes())
		if budget := d.Bytes() + int64(units) + slack; got > float64(budget) {
			t.Errorf("%s: a second Generate allocated %.0f B, want at most %d (%d B of columns and statistics, %d of units)", name, got, budget, d.Bytes(), units)
		}
	}
}
