package workload

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"destset/internal/cache"
	"destset/internal/coherence"
	"destset/internal/trace"
	"destset/internal/xrand"
)

// smallParams is a fast, fully shared-pattern workload for unit tests.
func smallParams() Params {
	return Params{
		Name:  "test",
		Nodes: 8,
		Seed:  7,
		Mix:   Mix{Migratory: 0.4, ProducerConsumer: 0.3, WidelyShared: 0.1, Streaming: 0.2},

		SharedUnits:        50,
		BlocksPerUnit:      8,
		MacroblocksPerUnit: 1,
		UnitZipfTheta:      0.9,

		GroupSizeWeights:    []float64{0, 0, 2, 1, 1},
		MigratoryReadFirst:  0.5,
		WidelyWriteFraction: 0.2,

		StreamBlocksPerNode: 4096,
		StreamWriteFraction: 0.3,

		MissesPer1000Instr: 5,
		StaticPCs:          500,
		PCZipfTheta:        0.9,

		L2: coherence.Config{
			Nodes:           8,
			L2:              cache.Config{SizeBytes: 256 * 64, Ways: 4, BlockBytes: 64},
			TrackBlockStats: true,
		},
	}
}

func TestPatternString(t *testing.T) {
	want := map[Pattern]string{
		Migratory:        "migratory",
		ProducerConsumer: "producer-consumer",
		WidelyShared:     "widely-shared",
		Streaming:        "streaming",
	}
	for p, w := range want {
		if p.String() != w {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), w)
		}
	}
}

func TestValidate(t *testing.T) {
	good := smallParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := map[string]func(*Params){
		"zero nodes":    func(p *Params) { p.Nodes = 0 },
		"no units":      func(p *Params) { p.SharedUnits = 0 },
		"zero blocks":   func(p *Params) { p.BlocksPerUnit = 0 },
		"overfull unit": func(p *Params) { p.BlocksPerUnit = 100; p.MacroblocksPerUnit = 1 },
		"zero mpki":     func(p *Params) { p.MissesPer1000Instr = 0 },
		"no PCs":        func(p *Params) { p.StaticPCs = 0 },
		"no stream":     func(p *Params) { p.StreamBlocksPerNode = 0 },
	}
	for name, mutate := range cases {
		p := smallParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g1, err := New(smallParams())
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := New(smallParams())
	t1, i1 := g1.Generate(2000)
	t2, i2 := g2.Generate(2000)
	if t1.Len() != t2.Len() {
		t.Fatal("same-seed traces differ in length")
	}
	for i := range t1.Records {
		if t1.Records[i] != t2.Records[i] || i1[i] != i2[i] {
			t.Fatalf("same-seed traces diverge at record %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := smallParams()
	b := smallParams()
	b.Seed = 99
	ga, _ := New(a)
	gb, _ := New(b)
	ta, _ := ga.Generate(500)
	tb, _ := gb.Generate(500)
	same := 0
	for i := range ta.Records {
		if ta.Records[i] == tb.Records[i] {
			same++
		}
	}
	if same > 450 {
		t.Errorf("different seeds produced %d/500 identical records", same)
	}
}

func TestRecordsAreRealMisses(t *testing.T) {
	// With caches large enough to avoid evictions, replaying the generated
	// trace through a fresh oracle reproduces the annotations exactly:
	// every record is a genuine miss. (With evicting caches the replay can
	// diverge slightly because generation-time cache hits advance LRU state
	// that is invisible in the miss trace; TestReplayStaysConsistent covers
	// that case.)
	p := smallParams()
	p.L2.L2 = cache.Config{SizeBytes: 1 << 22, Ways: 4, BlockBytes: 64}
	g, _ := New(p)
	tr, infos := g.Generate(3000)
	replay := coherence.NewSystem(p.L2)
	for i, rec := range tr.Records {
		got := replay.Apply(rec)
		if got != infos[i] {
			t.Fatalf("record %d: replay annotation %+v != generated %+v", i, got, infos[i])
		}
	}
}

func TestReplayStaysConsistent(t *testing.T) {
	// Even with small, evicting caches, replaying a generated trace keeps
	// the oracle's directory and cache state mutually consistent and
	// agrees with generation on the vast majority of annotations.
	p := smallParams()
	g, _ := New(p)
	tr, infos := g.Generate(3000)
	replay := coherence.NewSystem(p.L2)
	agree := 0
	for i, rec := range tr.Records {
		got := replay.Apply(rec)
		if got == infos[i] {
			agree++
		}
		if got.Home != infos[i].Home {
			t.Fatalf("record %d: home mismatch", i)
		}
	}
	if err := replay.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if frac := float64(agree) / float64(tr.Len()); frac < 0.95 {
		t.Errorf("replay agreed on only %.1f%% of annotations", 100*frac)
	}
}

func TestOracleInvariantsAfterGeneration(t *testing.T) {
	g, _ := New(smallParams())
	g.Generate(5000)
	if err := g.System().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGapsPositiveAndCalibrated(t *testing.T) {
	p := smallParams()
	g, _ := New(p)
	tr, _ := g.Generate(5000)
	var instr uint64
	for _, rec := range tr.Records {
		if rec.Gap == 0 {
			t.Fatal("gap must be at least 1 instruction")
		}
		instr += uint64(rec.Gap)
	}
	mpki := 1000 * float64(tr.Len()) / float64(instr)
	if mpki < 0.85*p.MissesPer1000Instr || mpki > 1.15*p.MissesPer1000Instr {
		t.Errorf("realized mpki = %.2f, want ~%v", mpki, p.MissesPer1000Instr)
	}
}

func TestRequestersInRange(t *testing.T) {
	p := smallParams()
	g, _ := New(p)
	tr, _ := g.Generate(2000)
	seen := make(map[uint8]bool)
	for _, rec := range tr.Records {
		if int(rec.Requester) >= p.Nodes {
			t.Fatalf("requester %d out of range", rec.Requester)
		}
		seen[rec.Requester] = true
	}
	if len(seen) < p.Nodes/2 {
		t.Errorf("only %d/%d nodes ever requested", len(seen), p.Nodes)
	}
}

func TestBothRequestKindsAppear(t *testing.T) {
	g, _ := New(smallParams())
	tr, _ := g.Generate(2000)
	var gets, getx int
	for _, rec := range tr.Records {
		if rec.Kind == trace.GetShared {
			gets++
		} else {
			getx++
		}
	}
	if gets == 0 || getx == 0 {
		t.Errorf("trace should mix reads and writes: GETS=%d GETX=%d", gets, getx)
	}
}

func TestStreamingRegionsAreNodePrivate(t *testing.T) {
	// Blocks in a node's streaming region must only ever be touched by
	// that node.
	p := smallParams()
	p.Mix = Mix{Streaming: 1}
	p.SharedUnits = 1
	g, _ := New(p)
	g.Generate(2000)
	g.System().ForEachTouchedBlock(func(b coherence.BlockStat) {
		if b.Touched.Count() > 1 {
			t.Fatalf("streamed block %d touched by %v", b.Addr, b.Touched)
		}
	})
}

func TestSharedUnitsSpanGroups(t *testing.T) {
	// With only migratory traffic, every miss's block must eventually be
	// touched by at least two nodes.
	p := smallParams()
	p.Mix = Mix{Migratory: 1}
	g, _ := New(p)
	g.Generate(4000)
	multi := 0
	total := 0
	g.System().ForEachTouchedBlock(func(b coherence.BlockStat) {
		total++
		if b.Touched.Count() >= 2 {
			multi++
		}
	})
	if total == 0 || float64(multi)/float64(total) < 0.8 {
		t.Errorf("migratory workload: only %d/%d blocks multi-touched", multi, total)
	}
}

func TestUnitBlocksStayInSpan(t *testing.T) {
	p := smallParams()
	blocks := unitBlocks(32, p) // base at block 32, 1 macroblock span
	if len(blocks) != p.BlocksPerUnit {
		t.Fatalf("len = %d", len(blocks))
	}
	for i, b := range blocks {
		if b < 32 || b >= 32+trace.BlocksPerMacroblock {
			t.Errorf("block %d = %d outside macroblock span", i, b)
		}
		if i > 0 && b <= blocks[i-1] {
			t.Errorf("blocks not strictly increasing: %v", blocks)
		}
	}
}

func TestPresetRegistry(t *testing.T) {
	names := Names()
	want := []string{"apache", "barnes-hut", "ocean", "oltp", "phased", "regulated", "slashcode", "specjbb", "tenant-mix"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	for _, n := range PaperNames() {
		if _, err := Preset(n, 1); err != nil {
			t.Errorf("Preset(%s): %v", n, err)
		}
	}
	if _, err := Preset("nosuch", 1); err == nil {
		t.Error("unknown preset should error")
	}
	if got := len(All(1)); got != len(want) {
		t.Errorf("All() returned %d workloads", got)
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, p := range All(3) {
		if err := p.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", p.Name, err)
		}
		if _, err := Open(p); err != nil {
			t.Errorf("preset %s: Open failed: %v", p.Name, err)
		}
	}
}

func TestPCsComeFromPool(t *testing.T) {
	p := smallParams()
	g, _ := New(p)
	tr, _ := g.Generate(2000)
	for _, rec := range tr.Records {
		if rec.PC < 0x40000 || rec.PC >= trace.PC(0x40000+4*p.StaticPCs) {
			t.Fatalf("PC %#x outside pool", uint64(rec.PC))
		}
	}
}

func TestGroupSizesRespectDistribution(t *testing.T) {
	p := smallParams()
	p.GroupSizeWeights = []float64{0, 0, 1} // pairwise only
	p.Mix = Mix{Migratory: 1}
	g, _ := New(p)
	for _, u := range g.units[Migratory] {
		if len(u.group) != 2 {
			t.Fatalf("group size = %d, want 2", len(u.group))
		}
	}
}

// TestSortDescendingMatchesExchangeSort checks the group-size sort
// against the O(n²) exchange sort it replaced, kept here as the
// reference: both give the same order on any group sizes, so every
// preset lays out the same groups.
func TestSortDescendingMatchesExchangeSort(t *testing.T) {
	exchange := func(sizes []int) {
		for i := 0; i < len(sizes); i++ {
			for j := i + 1; j < len(sizes); j++ {
				if sizes[j] > sizes[i] {
					sizes[i], sizes[j] = sizes[j], sizes[i]
				}
			}
		}
	}
	f := func(raw []uint8) bool {
		got := make([]int, len(raw))
		for i, v := range raw {
			got[i] = 2 + int(v%63) // group sizes in [2, 64]
		}
		want := slices.Clone(got)
		sortDescending(got)
		exchange(want)
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestGeometricSamplersMatchPerDrawLog pins the generator's precomputed
// geometric samplers to the formula they replaced, which took log(p) on
// every draw. For edge means, the generator's fixed means (2 and 4) and
// every preset's gap mean, both draw the same sequence from the same RNG
// stream and leave the stream in the same place, so every generated
// trace stays bit-identical.
func TestGeometricSamplersMatchPerDrawLog(t *testing.T) {
	means := []float64{-1, 0, 0.5, 2, 4}
	for _, name := range Names() {
		p, err := Preset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		means = append(means, 1000/p.MissesPer1000Instr)
	}
	for _, mean := range means {
		perDraw := func(r *xrand.RNG) int {
			if mean <= 0 {
				return 0
			}
			p := mean / (1 + mean)
			u := r.Float64()
			if u == 0 {
				u = math.SmallestNonzeroFloat64
			}
			k := int(math.Log(u) / math.Log(p))
			if k < 0 {
				k = 0
			}
			return k
		}
		g := xrand.NewGeometric(mean)
		a, b := xrand.New(21, 3), xrand.New(21, 3)
		for i := 0; i < 10000; i++ {
			if got, want := g.Sample(a), perDraw(b); got != want {
				t.Fatalf("mean %v, draw %d: %d, want %d", mean, i, got, want)
			}
		}
		if a.Uint32() != b.Uint32() {
			t.Fatalf("mean %v: the RNG streams diverged", mean)
		}
	}
}
