package experiments

import (
	"context"
	"fmt"
	"math"

	"destset"
)

// The paper addresses the runtime variability of commercial workloads by
// simulating each design point multiple times with small pseudo-random
// perturbations and reporting averages (§5.2, following Alameldeen et
// al.). This file provides that methodology: the same experiment run at
// several seeds, reported as mean and standard deviation.

// VariabilityPoint is one configuration measured across runs.
type VariabilityPoint struct {
	Config        string
	Runs          int
	MeanRuntimeNs float64
	StddevNs      float64
	// CoeffVar is the coefficient of variation (stddev/mean); the
	// methodology's check that run-to-run noise is small relative to the
	// protocol effects being measured.
	CoeffVar float64
	MeanBPM  float64 // mean bytes per miss
}

// MeanStddev returns the sample mean and (population) standard deviation.
func MeanStddev(xs []float64) (mean, stddev float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / float64(len(xs)))
}

// Figure7Variability runs the Figure 7 protocol comparison on one
// workload across `runs` perturbed seeds and reports per-configuration
// means and deviations. The perturbation regenerates the workload with a
// different seed, which shifts unit layout, group membership and access
// interleaving — the analogue of the paper's small timing perturbations.
// The perturbed seeds are just the TimingRunner's seed axis: the sweep is
// one protocol × seed cross-product over the shared worker pool.
func Figure7Variability(ctx context.Context, opt Options, workloadName string, runs int) ([]VariabilityPoint, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if runs < 1 {
		runs = 1
	}
	specs, err := opt.timingSpecs(destset.SimpleCPU)
	if err != nil {
		return nil, err
	}
	seeds := make([]uint64, runs)
	for r := range seeds {
		seeds[r] = opt.Seed + uint64(r)
	}
	def := destset.NewTimingSweepDef(specs, opt.timedWorkloads(workloadName), destset.WithSeeds(seeds...))
	res, err := opt.runTiming(ctx, def, nil)
	if err != nil {
		return nil, err
	}
	if len(res) != len(specs)*runs {
		return nil, fmt.Errorf("experiments: variability sweep returned %d cells, want %d", len(res), len(specs)*runs)
	}

	// Results are spec-major, seed-minor: res[si*runs+r].
	out := make([]VariabilityPoint, 0, len(specs))
	for si := range specs {
		runtimes := make([]float64, runs)
		traffic := make([]float64, runs)
		for r := 0; r < runs; r++ {
			cell := res[si*runs+r]
			runtimes[r] = cell.Result.RuntimeNs
			traffic[r] = cell.Result.BytesPerMiss()
		}
		mean, stddev := MeanStddev(runtimes)
		bpm, _ := MeanStddev(traffic)
		cv := 0.0
		if mean > 0 {
			cv = stddev / mean
		}
		out = append(out, VariabilityPoint{
			Config:        res[si*runs].Config,
			Runs:          runs,
			MeanRuntimeNs: mean,
			StddevNs:      stddev,
			CoeffVar:      cv,
			MeanBPM:       bpm,
		})
	}
	return out, nil
}
