package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"destset/internal/workload"
)

// Most tests here are integration tests asserting the paper's qualitative
// claims at reduced scale (QuickOptions). Tolerances are wide enough for
// the shorter traces but tight enough that a broken predictor, protocol
// or generator fails loudly.

func quick(t *testing.T) Options {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment harnesses are integration-scale")
	}
	return QuickOptions()
}

// mid is used by the tests whose paper claims need warmed-up caches and
// predictors (Table 2 bands, StickySpatial's slow sticky train-up).
func mid(t *testing.T) Options {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment harnesses are integration-scale")
	}
	o := QuickOptions()
	o.WarmMisses = 200_000
	o.Misses = 120_000
	return o
}

func findPoint(t *testing.T, pts []TradeoffPoint, substr string) TradeoffPoint {
	t.Helper()
	for _, p := range pts {
		if strings.Contains(p.Config, substr) {
			return p
		}
	}
	t.Fatalf("no point matching %q in %+v", substr, pts)
	return TradeoffPoint{}
}

func TestCharacterizeMatchesPaperTable2(t *testing.T) {
	opt := mid(t)
	cs, err := Characterize(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) != 6 {
		t.Fatalf("characterized %d workloads", len(cs))
	}
	for _, c := range cs {
		want := workload.PaperIndirections[c.Workload]
		if c.DirIndirectPc < want-9 || c.DirIndirectPc > want+9 {
			t.Errorf("%s: directory indirections %.1f%%, paper %v%%", c.Workload, c.DirIndirectPc, want)
		}
		if c.Misses != uint64(opt.Misses) {
			t.Errorf("%s: measured %d misses, want %d", c.Workload, c.Misses, opt.Misses)
		}
		if c.MPKI <= 0 {
			t.Errorf("%s: MPKI %.2f", c.Workload, c.MPKI)
		}
		if c.TouchedMB64 <= 0 || c.TouchedMB1024 < c.TouchedMB64 {
			t.Errorf("%s: footprints 64B=%.1fMB 1KB=%.1fMB", c.Workload, c.TouchedMB64, c.TouchedMB1024)
		}
		if c.StaticPCs <= 0 || c.StaticPCs > c.Workload2StaticPool() {
			t.Errorf("%s: static PCs %d", c.Workload, c.StaticPCs)
		}
	}
}

// Workload2StaticPool returns the configured PC pool size for bounds
// checks.
func (c Characterization) Workload2StaticPool() int {
	p, err := workload.Preset(c.Workload, 1)
	if err != nil {
		return 1 << 30
	}
	return p.StaticPCs
}

// Each dataset is characterized on its own worker into its own slot, so
// any parallelism returns the same results in workload order.
func TestCharacterizeIsParallelismInvariant(t *testing.T) {
	opt := quick(t)
	opt.WarmMisses, opt.Misses = 2000, 4000
	var runs [][]Characterization
	for _, par := range []int{1, 4} {
		opt.Parallelism = par
		cs, err := Characterize(opt)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, cs)
	}
	if len(runs[0]) != 6 || !reflect.DeepEqual(runs[0], runs[1]) {
		t.Errorf("parallelism 1 and 4 differ:\n%+v\n%+v", runs[0], runs[1])
	}
}

func TestCharacterizeMPKIMatchesPreset(t *testing.T) {
	opt := quick(t)
	opt.Workloads = []string{"oltp"}
	cs, err := Characterize(opt)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := workload.Preset("oltp", 1)
	got := cs[0].MPKI
	if got < 0.8*p.MissesPer1000Instr || got > 1.2*p.MissesPer1000Instr {
		t.Errorf("OLTP MPKI = %.2f, want ~%.1f", got, p.MissesPer1000Instr)
	}
}

func TestFigure2Shape(t *testing.T) {
	opt := quick(t)
	cs, err := Characterize(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		// Percentages of reads and writes each sum to ~100.
		var rsum, wsum float64
		for v := 0; v < 4; v++ {
			rsum += c.ReadsMustSee[v]
			wsum += c.WritesMustSee[v]
		}
		if rsum < 99 || rsum > 101 || wsum < 99 || wsum > 101 {
			t.Errorf("%s: Figure 2 percentages sum to %.1f/%.1f", c.Workload, rsum, wsum)
		}
		// Reads never need more than one other processor (the owner).
		if c.ReadsMustSee[2] > 0.01 || c.ReadsMustSee[3] > 0.01 {
			t.Errorf("%s: reads needing >1 processor: %.2f/%.2f", c.Workload, c.ReadsMustSee[2], c.ReadsMustSee[3])
		}
	}
}

func TestFigure3OceanException(t *testing.T) {
	opt := quick(t)
	opt.Workloads = []string{"ocean", "apache"}
	cs, err := Characterize(opt)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Characterization{}
	for _, c := range cs {
		byName[c.Workload] = c
	}
	// Ocean: misses concentrate on blocks touched by few processors.
	ocean := byName["ocean"]
	low := ocean.MissesTouchedBy[1] + ocean.MissesTouchedBy[2] + ocean.MissesTouchedBy[3] + ocean.MissesTouchedBy[4]
	if low < 60 {
		t.Errorf("ocean: only %.1f%% of misses to narrowly-shared blocks", low)
	}
	// Apache: a large share of misses goes to widely-touched blocks.
	apache := byName["apache"]
	var wide float64
	for n := 5; n < len(apache.MissesTouchedBy); n++ {
		wide += apache.MissesTouchedBy[n]
	}
	if wide < 30 {
		t.Errorf("apache: only %.1f%% of misses to widely-shared blocks", wide)
	}
}

func TestFigure4CurvesMonotone(t *testing.T) {
	opt := quick(t)
	opt.Workloads = []string{"specjbb"}
	cs, err := Characterize(opt)
	if err != nil {
		t.Fatal(err)
	}
	c := cs[0]
	for name, curve := range map[string][]float64{
		"blocks": c.C2CByHotBlocks, "macroblocks": c.C2CByHotMacroblocks, "pcs": c.C2CByHotPCs,
	} {
		for i := 1; i < len(curve); i++ {
			if curve[i] < curve[i-1]-1e-9 {
				t.Errorf("%s curve not monotone: %v", name, curve)
			}
		}
		if last := curve[len(curve)-1]; last < 50 {
			t.Errorf("%s curve covers only %.1f%% at 10k keys", name, last)
		}
	}
}

func TestFigure5PaperClaims(t *testing.T) {
	opt := quick(t)
	panels, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 6 {
		t.Fatalf("Figure 5 has %d panels", len(panels))
	}
	ownerUnder25 := 0
	for _, p := range panels {
		snoop := findPoint(t, p.Points, "Snooping")
		dir := findPoint(t, p.Points, "Directory")
		owner := findPoint(t, p.Points, "Owner[")
		bis := findPoint(t, p.Points, "BroadcastIfShared")
		group := findPoint(t, p.Points, "Group[")

		if snoop.IndirectionPct != 0 {
			t.Errorf("%s: snooping indirections %.2f", p.Workload, snoop.IndirectionPct)
		}
		if snoop.MsgsPerMiss != 15 {
			t.Errorf("%s: snooping msgs/miss %.2f, want 15", p.Workload, snoop.MsgsPerMiss)
		}
		// Owner: near-directory bandwidth (§4.3: <25% extra traffic).
		if owner.MsgsPerMiss > dir.MsgsPerMiss*1.25 {
			t.Errorf("%s: Owner msgs/miss %.2f vs directory %.2f", p.Workload, owner.MsgsPerMiss, dir.MsgsPerMiss)
		}
		if owner.IndirectionPct < 25 {
			ownerUnder25++
		}
		// Broadcast-If-Shared: indirections below 6%, less traffic than
		// snooping.
		if bis.IndirectionPct > 6 {
			t.Errorf("%s: BIS indirections %.1f%%, paper <6%%", p.Workload, bis.IndirectionPct)
		}
		if bis.MsgsPerMiss >= snoop.MsgsPerMiss {
			t.Errorf("%s: BIS traffic %.2f not below snooping", p.Workload, bis.MsgsPerMiss)
		}
		// Group: at most half of snooping traffic, indirections < 15%.
		if group.MsgsPerMiss > snoop.MsgsPerMiss/2 {
			t.Errorf("%s: Group msgs/miss %.2f above half of snooping", p.Workload, group.MsgsPerMiss)
		}
		if group.IndirectionPct > 16 {
			t.Errorf("%s: Group indirections %.1f%%, paper <15%%", p.Workload, group.IndirectionPct)
		}
	}
	if ownerUnder25 < 5 {
		t.Errorf("Owner under 25%% indirections on only %d/6 workloads, paper reports 5/6", ownerUnder25)
	}
}

func TestFigure5BISBandwidthSavingsOnLowSharingWorkloads(t *testing.T) {
	opt := quick(t)
	opt.Workloads = []string{"slashcode", "specjbb"}
	panels, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range panels {
		snoop := findPoint(t, p.Points, "Snooping")
		bis := findPoint(t, p.Points, "BroadcastIfShared")
		if bis.MsgsPerMiss > snoop.MsgsPerMiss*0.55 {
			t.Errorf("%s: BIS should halve snooping bandwidth, got %.2f vs %.2f",
				p.Workload, bis.MsgsPerMiss, snoop.MsgsPerMiss)
		}
	}
}

func TestFigure6aMacroblockDwarfsPCIndexing(t *testing.T) {
	// §4.4's conclusion: whatever PC indexing buys "is dwarfed by
	// macroblock indexing", so PC indexing does not justify exporting
	// miss PCs from the core. Macroblock-indexed Owner must beat
	// PC-indexed Owner.
	opt := quick(t)
	pcPts, err := Figure6a(opt)
	if err != nil {
		t.Fatal(err)
	}
	mbPts, err := Figure6b(opt)
	if err != nil {
		t.Fatal(err)
	}
	pc := findPoint(t, pcPts, "Owner[PC")
	mb := findPoint(t, mbPts, "Owner[1024B")
	if mb.IndirectionPct > pc.IndirectionPct {
		t.Errorf("Owner: 1024B macroblock %.1f%% indirections should beat PC %.1f%%",
			mb.IndirectionPct, pc.IndirectionPct)
	}
}

func TestFigure6bMacroblocksReduceIndirections(t *testing.T) {
	// §4.4: 256B and 1024B macroblock indexing improve prediction.
	opt := quick(t)
	pts, err := Figure6b(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"Owner[", "Group["} {
		b64 := findPoint(t, pts, pol+"64B")
		b1024 := findPoint(t, pts, pol+"1024B")
		if b1024.IndirectionPct > b64.IndirectionPct {
			t.Errorf("%s 1024B indexing (%.1f%%) should not indirect more than 64B (%.1f%%)",
				pol, b1024.IndirectionPct, b64.IndirectionPct)
		}
	}
}

func TestFigure6cFiniteNearUnbounded(t *testing.T) {
	// §4.4: 8192-entry predictors perform comparably to unbounded ones.
	opt := quick(t)
	pts, err := Figure6c(opt)
	if err != nil {
		t.Fatal(err)
	}
	unb := findPoint(t, pts, "Group[1024B,unbounded")
	fin := findPoint(t, pts, "Group[1024B,8192e")
	if fin.IndirectionPct > unb.IndirectionPct+6 {
		t.Errorf("finite Group %.1f%% indirections vs unbounded %.1f%%",
			fin.IndirectionPct, unb.IndirectionPct)
	}
}

func TestFigure6cStickySpatialDominated(t *testing.T) {
	// §4.4: our predictors perform similarly or better than StickySpatial
	// in one or both criteria; in particular Group uses far less traffic
	// at comparable indirections.
	opt := mid(t)
	pts, err := Figure6c(opt)
	if err != nil {
		t.Fatal(err)
	}
	ss := findPoint(t, pts, "StickySpatial(1)[64B,8192e")
	group := findPoint(t, pts, "Group[1024B,8192e")
	if group.MsgsPerMiss >= ss.MsgsPerMiss {
		t.Errorf("Group traffic %.2f should be below StickySpatial %.2f",
			group.MsgsPerMiss, ss.MsgsPerMiss)
	}
}

func TestFigure7PaperClaims(t *testing.T) {
	opt := quick(t)
	opt.Workloads = []string{"apache", "oltp"}
	panels, err := Figure7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range panels {
		var snoop, dir TimingPoint
		for _, pt := range p.Points {
			switch pt.Config {
			case "snooping":
				snoop = pt
			case "directory":
				dir = pt
			}
		}
		// Snooping outperforms directory on these high-sharing workloads.
		if snoop.NormRuntime >= 95 {
			t.Errorf("%s: snooping normalized runtime %.1f, want well below 100", p.Workload, snoop.NormRuntime)
		}
		// Snooping uses roughly twice the directory's traffic.
		if dir.NormTraffic < 33 || dir.NormTraffic > 67 {
			t.Errorf("%s: directory normalized traffic %.1f, want ~50", p.Workload, dir.NormTraffic)
		}
		// The headline claim: some predictor achieves most of snooping's
		// performance at far below snooping's bandwidth.
		hit := false
		for _, pt := range p.Points {
			if !strings.Contains(pt.Config, "Multicast") {
				continue
			}
			closeToSnoop := pt.NormRuntime <= snoop.NormRuntime+0.35*(100-snoop.NormRuntime)
			cheap := pt.NormTraffic <= 60
			if closeToSnoop && cheap {
				hit = true
			}
		}
		if !hit {
			t.Errorf("%s: no predictor achieved ~snooping performance at <60%% traffic: %+v", p.Workload, p.Points)
		}
	}
}

func TestFigure8MirrorsFigure7(t *testing.T) {
	opt := quick(t)
	opt.Workloads = []string{"oltp"}
	f8, err := Figure8(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	p := f8[0]
	var snoop TimingPoint
	for _, pt := range p.Points {
		if pt.Config == "snooping" {
			snoop = pt
		}
	}
	if snoop.NormRuntime >= 100 {
		t.Errorf("detailed model: snooping normalized runtime %.1f", snoop.NormRuntime)
	}
	// The detailed core overlaps misses, so absolute runtime is lower
	// than the simple model's.
	f7, err := Figure7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var simpleSnoop TimingPoint
	for _, pt := range f7[0].Points {
		if pt.Config == "snooping" {
			simpleSnoop = pt
		}
	}
	if snoop.RuntimeNs >= simpleSnoop.RuntimeNs {
		t.Errorf("detailed runtime %.0f should beat simple %.0f", snoop.RuntimeNs, simpleSnoop.RuntimeNs)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := Options{Misses: 0, TimedMisses: 1}
	if _, err := Characterize(bad); err == nil {
		t.Error("zero misses should error")
	}
	unknown := QuickOptions()
	unknown.Workloads = []string{"nosuch"}
	if _, err := Characterize(unknown); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestFormatters(t *testing.T) {
	opt := quick(t)
	opt.Workloads = []string{"ocean"}
	opt.WarmMisses, opt.Misses = 5000, 5000
	opt.TimedWarmMisses, opt.TimedMisses = 3000, 3000
	cs, err := Characterize(opt)
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{
		"table2": FormatTable2(cs),
		"fig2":   FormatFigure2(cs),
		"fig3":   FormatFigure3(cs),
		"fig4":   FormatFigure4(cs),
	} {
		if !strings.Contains(out, "ocean") {
			t.Errorf("%s output missing workload name:\n%s", name, out)
		}
	}
	f5, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatTradeoff("Figure 5", f5); !strings.Contains(out, "Snooping") {
		t.Errorf("figure 5 format:\n%s", out)
	}
	f7, err := Figure7(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if out := FormatTiming("Figure 7", f7); !strings.Contains(out, "directory") {
		t.Errorf("figure 7 format:\n%s", out)
	}
}
