package experiments

// The figures' sweep definitions and their sharded entry points. A
// figure harness assembles panels and therefore needs every cell of its
// sweep; a shard process by definition holds only a subset. The
// functions below expose each figure's definition directly — the same
// specs, workloads, seeds and scale the figure runs, so the def's plan
// (and its fingerprint) is identical across processes — and run any
// list of its plan cells with raw results streamed to observers instead
// of panels. cmd/traceeval and cmd/timing use them for -json and -shard
// runs (a shard runs the cells its plan's ShardIndices lists),
// cmd/sweepd serves the definitions to workers, and cmd/sweepmerge
// reassembles shard files.

import (
	"context"

	"destset"
)

// TradeoffSweepDef captures the Figure 5 trace-driven sweep under opt as
// a serializable definition: the snooping/directory baselines plus the
// four standout-configuration policies, over every selected workload at
// the trace-driven scale and then every extra workload. Workloads
// resolve by name through the shared dataset store, which keys
// identically across processes — the property sharding, the disk tier
// and the distributed workers all rely on.
func TradeoffSweepDef(opt Options) (destset.SweepDef, error) {
	if err := opt.validate(); err != nil {
		return destset.SweepDef{}, err
	}
	workloads := append(opt.traceWorkloads(opt.names()...), opt.ExtraWorkloads...)
	return opt.traceDef(append(baselineSpecs(), standoutSpecs()...), workloads), nil
}

// TradeoffSweep executes the given plan cells of the Figure 5
// trace-driven sweep (nil runs every cell), streaming each cell's
// observation to opt.Observer and returning the raw results in global
// plan order.
func TradeoffSweep(ctx context.Context, opt Options, cells []int) ([]destset.RunResult, error) {
	def, err := TradeoffSweepDef(opt)
	if err != nil {
		return nil, err
	}
	return opt.runTrace(ctx, def, cells)
}

// TimingSweepDef captures a figure's timing sweep under opt — the simple
// model's Figure 7 cells or the detailed model's Figure 8 cells — as a
// serializable definition: every selected protocol configuration over
// every selected workload at the timed scale and then every extra
// workload, in one addressable plan that runs entire or shard by shard.
func TimingSweepDef(opt Options, cpu destset.CPUModel) (destset.SweepDef, error) {
	if err := opt.validate(); err != nil {
		return destset.SweepDef{}, err
	}
	specs, err := opt.timingSpecs(cpu)
	if err != nil {
		return destset.SweepDef{}, err
	}
	workloads := append(opt.timedWorkloads(opt.timingNames(cpu)...), opt.ExtraWorkloads...)
	return destset.NewTimingSweepDef(specs, workloads, destset.WithSeeds(opt.Seed)), nil
}

// TimingSweep executes the given plan cells of a figure's timing sweep
// (nil runs every cell), streaming each completed cell to
// opt.TimingObserver and returning the raw results in global plan
// order. It is the sharded-execution entry point behind
// cmd/timing -json -shard; unlike Figure7/Figure8 it performs no panel
// assembly, since a shard does not hold the normalization anchors of
// every workload.
func TimingSweep(ctx context.Context, opt Options, cpu destset.CPUModel, cells []int) ([]destset.TimingResult, error) {
	def, err := TimingSweepDef(opt, cpu)
	if err != nil {
		return nil, err
	}
	return opt.runTiming(ctx, def, cells)
}
