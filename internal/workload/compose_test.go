package workload

import (
	"math"
	"strings"
	"testing"

	"destset/internal/trace"
	"destset/internal/xrand"
)

func miniBase(name string) Params {
	p := composeBase(name, Mix{Migratory: 0.5, ProducerConsumer: 0.2, WidelyShared: 0.1, Streaming: 0.2})
	p.SharedUnits = 64
	p.StreamBlocksPerNode = 512
	p.StaticPCs = 256
	return p
}

func drain(t *testing.T, p Params, n int) ([]trace.Record, []uint64) {
	t.Helper()
	src, err := Open(p)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]trace.Record, n)
	var totalGapPerNode = make([]uint64, p.Nodes)
	for i := range recs {
		rec, _ := src.Next()
		recs[i] = rec
		totalGapPerNode[rec.Requester] += uint64(rec.Gap)
	}
	return recs, totalGapPerNode
}

func TestOpenDeterministic(t *testing.T) {
	for _, name := range []string{"phased", "tenant-mix", "regulated"} {
		p, err := Preset(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := drain(t, p, 5000)
		b, _ := drain(t, p, 5000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: record %d differs across identical opens: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

func TestOpenSeedsDecorrelate(t *testing.T) {
	p1, _ := Preset("phased", 1)
	p2, _ := Preset("phased", 2)
	a, _ := drain(t, p1, 1000)
	b, _ := drain(t, p2, 1000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > len(a)/2 {
		t.Fatalf("seeds 1 and 2 share %d/%d records", same, len(a))
	}
}

func TestPhasedBudgetsShiftPatterns(t *testing.T) {
	mig := miniBase("mig")
	mig.Mix = Mix{Migratory: 1}
	str := miniBase("str")
	str.Mix = Mix{Streaming: 1}
	p, err := Phased("p", 8, Phase{Misses: 500, Params: mig}, Phase{Misses: 500, Params: str})
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 3
	recs, _ := drain(t, p, 2000)
	// The streaming phase walks per-node private regions laid out after
	// the shared units; the migratory phase touches only shared units.
	// Count writes per half-cycle: a pure-migratory phase is write-heavy.
	writes := func(lo, hi int) int {
		w := 0
		for _, r := range recs[lo:hi] {
			if r.Kind == trace.GetExclusive {
				w++
			}
		}
		return w
	}
	if mw, sw := writes(0, 500), writes(500, 1000); mw <= sw {
		t.Errorf("migratory phase writes %d, streaming phase writes %d: budgets not honored", mw, sw)
	}
}

func TestTenantMixInterleavesDisjointAddresses(t *testing.T) {
	base := miniBase("tenant")
	p, err := TenantMix("mix", base, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed = 5
	stride := trace.Addr(base.SpanMacroblocks() * trace.BlocksPerMacroblock)
	recs, _ := drain(t, p, 3000)
	seen := make(map[int]int)
	for i, r := range recs {
		tenant := int(r.Addr / stride)
		if tenant > 2 {
			t.Fatalf("record %d addr %d beyond tenant 2's range", i, r.Addr)
		}
		// Strict round-robin: record i belongs to tenant i%3.
		if tenant != i%3 {
			t.Fatalf("record %d in tenant %d's range, want tenant %d", i, tenant, i%3)
		}
		seen[tenant]++
	}
	if len(seen) != 3 {
		t.Fatalf("only %d tenants emitted misses", len(seen))
	}
}

func TestRegulatedThrottlesGaps(t *testing.T) {
	base := miniBase("reg")
	reg, err := Regulated(base, Regulation{TargetBytesPer1K: 100, Mu: 0.2, MaxThrottle: 8})
	if err != nil {
		t.Fatal(err)
	}
	base.Seed, reg.Seed = 9, 9
	const n = 20000
	_, gapsBase := drain(t, base, n)
	_, gapsReg := drain(t, reg, n)
	var tb, tr uint64
	for i := range gapsBase {
		tb += gapsBase[i]
		tr += gapsReg[i]
	}
	// A tight budget must stretch gaps (lower issue rate). The record
	// contents other than gaps are identical.
	if tr <= tb {
		t.Errorf("regulated total gap %d not above base %d: regulator never throttled", tr, tb)
	}
	loose, err := Regulated(base, Regulation{TargetBytesPer1K: 1e12, Mu: 0.2, MaxThrottle: 8})
	if err != nil {
		t.Fatal(err)
	}
	loose.Seed = 9
	_, gapsLoose := drain(t, loose, n)
	var tl uint64
	for _, g := range gapsLoose {
		tl += g
	}
	if tl != tb {
		t.Errorf("an unreachable budget changed gaps: %d vs %d", tl, tb)
	}
}

func TestComposeValidation(t *testing.T) {
	base := miniBase("b")
	cases := []struct {
		name string
		p    func() Params
		want string
	}{
		{"import cannot open", func() Params {
			return Params{Name: "imp", Nodes: 4, MissesPer1000Instr: 1,
				Import: Import{Format: "csv", SHA256: strings.Repeat("ab", 32), Records: 10}}
		}, "cannot be regenerated"},
		{"nested phases", func() Params {
			inner, _ := Phased("inner", 4, Phase{Misses: 1, Params: base})
			p := Params{Name: "outer", Nodes: 4, MissesPer1000Instr: 1,
				Phases: []Phase{{Misses: 1, Params: inner}}}
			return p
		}, "no nesting"},
		{"import plus phases", func() Params {
			return Params{Name: "both", Nodes: 4, MissesPer1000Instr: 1,
				Import:  Import{Format: "csv", SHA256: strings.Repeat("ab", 32), Records: 10},
				Phases:  []Phase{{Misses: 1, Params: base}},
				Tenants: nil}
		}, "at most one"},
		{"regulated import", func() Params {
			return Params{Name: "ri", Nodes: 4, MissesPer1000Instr: 1,
				Import:   Import{Format: "csv", SHA256: strings.Repeat("ab", 32), Records: 10},
				Regulate: Regulation{TargetBytesPer1K: 1, Mu: 0.1, MaxThrottle: 2}}
		}, "cannot be bandwidth-regulated"},
		{"bad mu", func() Params {
			p := base
			p.Regulate = Regulation{TargetBytesPer1K: 1, Mu: 2, MaxThrottle: 2}
			return p
		}, "outside (0, 1]"},
		{"tenant node mismatch", func() Params {
			sub := base
			sub.Nodes = 8
			return Params{Name: "mix", Nodes: 4, MissesPer1000Instr: 1, Tenants: []Params{sub, sub}}
		}, "nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Open(tc.p())
			if err == nil {
				t.Fatal("Open accepted an invalid composition")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestNewRefusesComposedKinds(t *testing.T) {
	for _, name := range []string{"phased", "tenant-mix", "regulated"} {
		p, err := Preset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := New(p); err == nil || !strings.Contains(err.Error(), "workload.Open") {
			t.Errorf("New(%s) = %v, want a use-Open error", name, err)
		}
	}
}

func TestAddrOffsetShiftsLayout(t *testing.T) {
	p := miniBase("off")
	p.Seed = 4
	off := p
	off.AddrOffsetMacroblocks = 1000
	a, _ := drain(t, p, 500)
	b, _ := drain(t, off, 500)
	delta := trace.Addr(1000 * trace.BlocksPerMacroblock)
	for i := range a {
		if b[i].Addr != a[i].Addr+delta {
			t.Fatalf("record %d: offset addr %d != base addr %d + %d", i, b[i].Addr, a[i].Addr, delta)
		}
		if b[i].Kind != a[i].Kind || b[i].Requester != a[i].Requester {
			t.Fatalf("record %d changed beyond the address shift", i)
		}
	}
}

// TestUnsampleableParamsAreRefused: Validate and Open refuse every
// generator parameter the samplers cannot take, with an error naming the
// field, whether it sits in a plain workload, a phase or a tenant. Each
// of them used to panic inside generation (a zero UnitZipfTheta, an
// all-zero, negative or NaN Mix weight) or corrupt the stream without
// an error (a NaN or infinite MissesPer1000Instr or UnitZipfTheta, an
// infinite Mix weight, or a MissesPer1000Instr so low that the largest
// first-miss gap wraps its uint32).
func TestUnsampleableParamsAreRefused(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name, field string
		mutate      func(*Params)
	}{
		{"zero zipf theta", "UnitZipfTheta", func(p *Params) { p.UnitZipfTheta = 0 }},
		{"NaN zipf theta", "UnitZipfTheta", func(p *Params) { p.UnitZipfTheta = nan }},
		{"infinite zipf theta", "UnitZipfTheta", func(p *Params) { p.UnitZipfTheta = inf }},
		{"NaN PC zipf theta", "PCZipfTheta", func(p *Params) { p.PCZipfTheta = nan }},
		{"all-zero mix", "Mix", func(p *Params) { p.Mix = Mix{} }},
		{"negative mix weight", "Mix", func(p *Params) { p.Mix.Migratory = -0.1 }},
		{"NaN mix weight", "Mix", func(p *Params) { p.Mix.Streaming = nan }},
		{"infinite mix weight", "Mix", func(p *Params) { p.Mix.WidelyShared = inf }},
		{"NaN mpki", "MissesPer1000Instr", func(p *Params) { p.MissesPer1000Instr = nan }},
		{"infinite mpki", "MissesPer1000Instr", func(p *Params) { p.MissesPer1000Instr = inf }},
		{"mpki wrapping the gap", "MissesPer1000Instr", func(p *Params) { p.MissesPer1000Instr = 1e-7 }},
		{"all-zero group sizes", "GroupSizeWeights", func(p *Params) { p.GroupSizeWeights = []float64{0, 0, 0} }},
		{"empty wide group sizes", "WideGroupSizeWeights", func(p *Params) { p.WideGroupSizeWeights = []float64{} }},
		{"negative wide group size", "WideGroupSizeWeights", func(p *Params) { p.WideGroupSizeWeights = []float64{0, 0, -1, 2} }},
	}
	// Each place a generated workload's fields can sit: the params
	// themselves, a phase's and a tenant's.
	places := []struct {
		name string
		make func(func(*Params)) Params
	}{
		{"plain", func(m func(*Params)) Params { p := OLTP(1); m(&p); return p }},
		{"phase", func(m func(*Params)) Params { p := PhasedPreset(1); m(&p.Phases[1].Params); return p }},
		{"tenant", func(m func(*Params)) Params { p := TenantMixPreset(1); m(&p.Tenants[2]); return p }},
	}
	for _, pl := range places {
		if err := pl.make(func(*Params) {}).Validate(); err != nil {
			t.Fatalf("%s: the unmodified preset is refused: %v", pl.name, err)
		}
		for _, tc := range cases {
			p := pl.make(tc.mutate)
			err := p.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s, %s: Validate = %v, want an error naming %s", pl.name, tc.name, err, tc.field)
			}
			if _, err := Open(p); err == nil {
				t.Errorf("%s, %s: Open accepted the params", pl.name, tc.name)
			}
		}
	}
}

// TestLowestMPKIFitsTheGap: a MissesPer1000Instr just above the floor
// Validate sets still draws its largest first-miss gap, the one at
// u = 0, inside a uint32, and one just below it is refused. The floor
// is about 1000·1074·ln 2/2^32 = 1.733e-4 on every platform: the u = 0
// draw takes the log of the smallest positive float64, 2^-1074.
func TestLowestMPKIFitsTheGap(t *testing.T) {
	const floor = 1000 * 1074 * math.Ln2 / math.MaxUint32
	ok, low := OLTP(1), OLTP(1)
	ok.MissesPer1000Instr, low.MissesPer1000Instr = 1.01*floor, 0.99*floor
	if err := ok.Validate(); err != nil {
		t.Fatalf("MPKI %v refused: %v", ok.MissesPer1000Instr, err)
	}
	if err := low.Validate(); err == nil {
		t.Errorf("MPKI %v accepted", low.MissesPer1000Instr)
	}
	if k := xrand.NewGeometric(1000 / ok.MissesPer1000Instr).Max(); k+1 > math.MaxUint32 {
		t.Errorf("the largest gap at MPKI %v is %.4g, past a uint32", ok.MissesPer1000Instr, k+1)
	}
}
