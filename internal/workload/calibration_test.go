package workload

import (
	"testing"

	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/stats"
	"destset/internal/trace"
)

// Calibration tests validate that the six synthetic workloads reproduce
// the paper's §2 characterization within tolerance. They run a reduced
// trace (the paper used 1M warmup + millions measured); tolerances are
// set accordingly.

const (
	calWarm    = 150000
	calMeasure = 150000
)

type calSummary struct {
	c2cPercent   float64
	readPercent  float64
	mustSee      *stats.Histogram
	blockTouched *stats.Histogram // per-block degree of sharing (Fig 3a)
	missWeighted *stats.Histogram // miss-weighted degree of sharing (Fig 3b)
	c2cByBlock   *stats.Concentration
	c2cByMacro   *stats.Concentration
	c2cByPC      *stats.Concentration
}

// paperAll returns the paper's six calibrated benchmarks at one seed —
// composed presets (phased, tenant-mix, regulated) have no Table 2 row
// and are excluded.
func paperAll(seed uint64) []Params {
	out := make([]Params, 0, len(PaperNames()))
	for _, n := range PaperNames() {
		p, err := Preset(n, seed)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

func calibrate(t *testing.T, p Params) calSummary {
	t.Helper()
	g, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	draw(g, calWarm)
	tr, infos := draw(g, calMeasure)
	s := calSummary{
		mustSee:      stats.NewHistogram(3),
		blockTouched: stats.NewHistogram(p.Nodes),
		missWeighted: stats.NewHistogram(p.Nodes),
		c2cByBlock:   stats.NewConcentration(),
		c2cByMacro:   stats.NewConcentration(),
		c2cByPC:      stats.NewConcentration(),
	}
	c2c, reads := 0, 0
	for i, rec := range tr {
		mi := infos[i]
		req := nodeset.NodeID(rec.Requester)
		if mi.CacheToCache(req) {
			c2c++
			s.c2cByBlock.Add(uint64(rec.Addr))
			s.c2cByMacro.Add(uint64(trace.Macroblock(rec.Addr, 1024)))
			s.c2cByPC.Add(uint64(rec.PC))
		}
		if rec.Kind == trace.GetShared {
			reads++
		}
		s.mustSee.Add(mi.DirMustSee(req, rec.Kind))
	}
	s.c2cPercent = 100 * float64(c2c) / float64(len(tr))
	s.readPercent = 100 * float64(reads) / float64(len(tr))
	g.System().ForEachTouchedBlock(func(b coherence.BlockStat) {
		s.blockTouched.Add(b.Touched.Count())
		s.missWeighted.AddN(b.Touched.Count(), uint64(b.Misses))
	})
	return s
}

func TestCalibrationDirectoryIndirections(t *testing.T) {
	// Table 2, column 7: percent of misses that indirect in a directory
	// protocol. Tolerance ±6 points at this reduced trace length.
	if testing.Short() {
		t.Skip("calibration runs 300k misses per workload")
	}
	for _, p := range paperAll(11) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			s := calibrate(t, p)
			want := PaperIndirections[p.Name]
			if s.c2cPercent < want-6 || s.c2cPercent > want+6 {
				t.Errorf("c2c = %.1f%%, paper reports %v%%", s.c2cPercent, want)
			}
		})
	}
}

func TestCalibrationInstantaneousSharing(t *testing.T) {
	// Figure 2: most requests need 0 or 1 other processors; only ~10%
	// need more than one.
	if testing.Short() {
		t.Skip("calibration runs 300k misses per workload")
	}
	for _, p := range paperAll(12) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			s := calibrate(t, p)
			multi := s.mustSee.PercentAtLeast(2)
			if multi > 15 {
				t.Errorf("%.1f%% of requests need >1 other processor, paper reports ~10%%", multi)
			}
			zeroOrOne := s.mustSee.Percent(0) + s.mustSee.Percent(1)
			if zeroOrOne < 85 {
				t.Errorf("only %.1f%% of requests need <=1 other processor", zeroOrOne)
			}
		})
	}
}

func TestCalibrationDegreeOfSharing(t *testing.T) {
	// Figure 3(a): most blocks are touched by few processors.
	// Figure 3(b): for commercial workloads, misses concentrate on blocks
	// touched by many processors; Ocean is the pairwise exception.
	if testing.Short() {
		t.Skip("calibration runs 300k misses per workload")
	}
	for _, p := range paperAll(13) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			s := calibrate(t, p)
			soloBlocks := s.blockTouched.Percent(1)
			if soloBlocks < 35 {
				t.Errorf("only %.1f%% of blocks touched by one processor", soloBlocks)
			}
			if p.Name == "ocean" {
				// Misses concentrate on blocks touched by <= 4 processors.
				low := 0.0
				for n := 1; n <= 4; n++ {
					low += s.missWeighted.Percent(n)
				}
				if low < 60 {
					t.Errorf("ocean: only %.1f%% of misses to blocks touched by <=4 procs", low)
				}
			}
			if p.Name == "apache" || p.Name == "oltp" {
				// Misses lean toward widely-touched blocks.
				wide := s.missWeighted.PercentAtLeast(5)
				if wide < 30 {
					t.Errorf("%s: only %.1f%% of misses to blocks touched by >=5 procs", p.Name, wide)
				}
			}
		})
	}
}

func TestCalibrationSharingLocality(t *testing.T) {
	// Figure 4: cache-to-cache misses concentrate on hot blocks,
	// macroblocks and instructions.
	if testing.Short() {
		t.Skip("calibration runs 300k misses per workload")
	}
	for _, p := range paperAll(14) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			s := calibrate(t, p)
			mb := s.c2cByMacro.CumulativePercent([]int{10000})[0]
			if mb < 80 {
				t.Errorf("hottest 10k macroblocks cover %.1f%% of c2c misses, paper >80%%", mb)
			}
			pc := s.c2cByPC.CumulativePercent([]int{2000})[0]
			if pc < 60 {
				t.Errorf("hottest 2k instructions cover %.1f%% of c2c misses", pc)
			}
		})
	}
}

func TestCalibrationSPECjbbBlockConcentration(t *testing.T) {
	// Figure 4(a): SPECjbb's hottest 1000 blocks cover ~80% of c2c misses.
	if testing.Short() {
		t.Skip("calibration runs 300k misses")
	}
	p, _ := Preset("specjbb", 15)
	s := calibrate(t, p)
	got := s.c2cByBlock.CumulativePercent([]int{1000})[0]
	if got < 55 {
		t.Errorf("hottest 1000 blocks cover %.1f%% of SPECjbb c2c misses, paper ~80%%", got)
	}
}
