package experiments

import (
	"context"

	"destset/internal/coherence"
	"destset/internal/dataset"
	"destset/internal/stats"
	"destset/internal/sweep"
	"destset/internal/trace"
)

// Characterization bundles the §2 sharing-behaviour analysis of one
// workload: Table 2's properties plus Figures 2, 3 and 4.
type Characterization struct {
	Workload string

	// Table 2 columns.
	TouchedMB64   float64 // memory touched in MB, 64-byte blocks
	TouchedMB1024 float64 // memory touched in MB, 1024-byte macroblocks
	StaticPCs     int     // static instructions causing misses
	Misses        uint64  // total measured L2 misses
	MPKI          float64 // misses per 1000 instructions
	DirIndirectPc float64 // percent of misses indirecting in a directory protocol

	// Figure 2: percent of reads/writes whose directory transaction must
	// be observed by 0, 1, 2, 3+ other processors.
	ReadsMustSee  [4]float64
	WritesMustSee [4]float64

	// Figure 3: percent of blocks (a) and misses (b) for blocks touched
	// by n processors; index n runs 1..Nodes.
	BlocksTouchedBy []float64
	MissesTouchedBy []float64

	// Figure 4: cumulative percent of cache-to-cache misses covered by
	// the N hottest blocks / 1024B macroblocks / static instructions.
	LocalityNs          []int
	C2CByHotBlocks      []float64
	C2CByHotMacroblocks []float64
	C2CByHotPCs         []float64
}

// LocalityCurvePoints is the Figure 4 x-axis (0..10,000 keys).
var LocalityCurvePoints = []int{0, 100, 250, 500, 1000, 2000, 4000, 6000, 8000, 10000}

// Characterize runs the §2 analysis for every selected workload,
// producing the data behind Table 2 and Figures 2-4. It reads the
// workloads' datasets from the shared store, fanning any still-missing
// generations over a worker pool (each dataset is an independent seeded
// generator, so the output is identical at any parallelism).
func Characterize(opt Options) ([]Characterization, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	params, err := opt.workloads()
	if err != nil {
		return nil, err
	}
	datasets := make([]*dataset.Dataset, len(params))
	err = sweep.ForEach(context.Background(), len(params), opt.Parallelism, func(i int) (err error) {
		datasets[i], err = dataset.GetShared(params[i], opt.WarmMisses, opt.Misses)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]Characterization, 0, len(datasets))
	for _, d := range datasets {
		out = append(out, characterizeDataset(d))
	}
	return out, nil
}

func characterizeDataset(d *dataset.Dataset) Characterization {
	nodes := d.Nodes()
	c := Characterization{
		Workload:        d.Params().Name,
		Misses:          uint64(d.Measure()),
		BlocksTouchedBy: make([]float64, nodes+1),
		MissesTouchedBy: make([]float64, nodes+1),
		LocalityNs:      LocalityCurvePoints,
	}

	reads := stats.NewHistogram(3)
	writes := stats.NewHistogram(3)
	byBlock := stats.NewConcentration()
	byMacro := stats.NewConcentration()
	byPC := stats.NewConcentration()
	pcs := make(map[trace.PC]struct{})
	var indirect uint64
	var instr uint64

	d.EachMeasured(func(rec trace.Record, mi coherence.MissInfo) {
		req := requesterOf(rec)
		instr += uint64(rec.Gap)
		pcs[rec.PC] = struct{}{}
		see := mi.DirMustSee(req, rec.Kind)
		if rec.Kind == trace.GetShared {
			reads.Add(see)
		} else {
			writes.Add(see)
		}
		if mi.DirIndirection(req) {
			indirect++
			byBlock.Add(uint64(rec.Addr))
			byMacro.Add(uint64(trace.Macroblock(rec.Addr, trace.MacroblockBytes)))
			byPC.Add(uint64(rec.PC))
		}
	})
	c.StaticPCs = len(pcs)
	c.DirIndirectPc = stats.Ratio(indirect, c.Misses)
	if instr > 0 {
		c.MPKI = 1000 * float64(c.Misses) / float64(instr)
	}
	for v := 0; v < 4; v++ {
		c.ReadsMustSee[v] = reads.Percent(v)
		c.WritesMustSee[v] = writes.Percent(v)
	}

	// Figure 3 and Table 2 footprints come from the oracle's per-block
	// statistics (which include the warm region: memory touched is a
	// whole-run property).
	blockHist := stats.NewHistogram(nodes)
	missHist := stats.NewHistogram(nodes)
	var touched64 uint64
	macroSeen := make(map[trace.Addr]struct{})
	for _, b := range d.BlockStats() {
		touched64++
		macroSeen[trace.Macroblock(b.Addr, trace.MacroblockBytes)] = struct{}{}
		blockHist.Add(b.Touched.Count())
		missHist.AddN(b.Touched.Count(), uint64(b.Misses))
	}
	c.TouchedMB64 = float64(touched64) * trace.BlockBytes / (1 << 20)
	c.TouchedMB1024 = float64(len(macroSeen)) * trace.MacroblockBytes / (1 << 20)
	for n := 1; n <= nodes; n++ {
		c.BlocksTouchedBy[n] = blockHist.Percent(n)
		c.MissesTouchedBy[n] = missHist.Percent(n)
	}

	c.C2CByHotBlocks = byBlock.CumulativePercent(c.LocalityNs)
	c.C2CByHotMacroblocks = byMacro.CumulativePercent(c.LocalityNs)
	c.C2CByHotPCs = byPC.CumulativePercent(c.LocalityNs)
	return c
}
