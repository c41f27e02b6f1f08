package experiments

import (
	"context"
	"fmt"
	"strings"

	"destset"
	"destset/internal/predictor"
)

// TimingPoint is one point on the Figure 7/8 plane: runtime normalized to
// the directory protocol (y) versus traffic per miss normalized to
// broadcast snooping (x).
type TimingPoint struct {
	Config       string
	NormRuntime  float64 // directory = 100
	NormTraffic  float64 // snooping = 100
	RuntimeNs    float64
	BytesPerMiss float64
	AvgLatencyNs float64
}

// WorkloadTiming is one workload's Figure 7/8 panel.
type WorkloadTiming struct {
	Workload string
	Points   []TimingPoint
}

// TimingSpecs returns the six protocol configurations of Figures 7/8 as
// sim specs for the public TimingRunner: the snooping and directory
// extremes plus multicast snooping under the paper's four predictor
// policies at the standout configuration.
func TimingSpecs(cpu destset.CPUModel) []destset.SimSpec {
	specs := []destset.SimSpec{
		{Protocol: destset.ProtocolSnooping, CPU: cpu},
		{Protocol: destset.ProtocolDirectory, CPU: cpu},
	}
	for _, pol := range []destset.Policy{
		destset.Owner,
		destset.BroadcastIfShared,
		destset.Group,
		destset.OwnerGroup,
	} {
		specs = append(specs, destset.SimSpec{
			Protocol: destset.ProtocolMulticast,
			Policy:   pol, UsePolicy: true,
			CPU: cpu,
		})
	}
	return specs
}

// matchesProtocol reports whether a spec's display label (e.g.
// "multicast+group") matches one of the filters. A filter matches the
// whole label, its protocol part, or its policy part, after the policy
// registry's name normalization — so "snooping", "Multicast+Group" and
// "owner_group" all select what they read as.
func matchesProtocol(spec destset.SimSpec, filters []string) bool {
	label := spec.DisplayLabel()
	proto, policy := label, ""
	if i := strings.IndexByte(label, '+'); i >= 0 {
		proto, policy = label[:i], label[i+1:]
	}
	for _, f := range filters {
		cf := predictor.CanonicalName(f)
		if cf == "" {
			continue // an empty filter (e.g. a trailing comma) matches nothing
		}
		switch cf {
		case predictor.CanonicalName(label), predictor.CanonicalName(proto), predictor.CanonicalName(policy):
			return true
		}
	}
	return false
}

// timingSpecs resolves the option set's timing configurations: the six
// Figure 7/8 specs, restricted by Options.Protocols when set.
func (o Options) timingSpecs(cpu destset.CPUModel) ([]destset.SimSpec, error) {
	specs := TimingSpecs(cpu)
	if len(o.Protocols) == 0 {
		return specs, nil
	}
	out := specs[:0]
	for _, s := range specs {
		if matchesProtocol(s, o.Protocols) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no timing configuration matches protocols %v", o.Protocols)
	}
	return out, nil
}

// timedWorkloads names workloads at the execution-driven scale.
func (o Options) timedWorkloads(names ...string) []destset.WorkloadSpec {
	return named(names, o.TimedWarmMisses, o.TimedMisses)
}

// timingNames resolves a figure's workload list for a CPU model: the
// option set's selection, defaulting to all six workloads for the
// simple model (Figure 7) and the paper's reduced detailed-model set
// (Figure 8).
func (o Options) timingNames(cpu destset.CPUModel) []string {
	if len(o.Workloads) == 0 && cpu == destset.DetailedCPU {
		return Figure8Workloads
	}
	return o.names()
}

// runTimingAll executes a figure's TimingSweepDef and normalizes each
// workload's panel as the paper does (runtime to directory, traffic to
// snooping). One definition means one worker pool for the whole figure
// — per-protocol and per-workload cells interleave freely, every cell
// replays its shared dataset zero-copy — and one plan, so the figure is
// shardable. Honors ctx.
func runTimingAll(ctx context.Context, opt Options, cpu destset.CPUModel) ([]WorkloadTiming, error) {
	def, err := TimingSweepDef(opt, cpu)
	if err != nil {
		return nil, err
	}
	res, err := opt.runTiming(ctx, def, nil)
	if err != nil {
		return nil, err
	}
	n := len(def.Sims)
	if len(res) != n*len(def.Workloads) {
		return nil, fmt.Errorf("experiments: timing sweep returned %d cells, want %d", len(res), n*len(def.Workloads))
	}
	out := make([]WorkloadTiming, len(def.Workloads))
	for wi := range out {
		cells := res[wi*n : (wi+1)*n]
		wt := WorkloadTiming{Workload: cells[0].Workload, Points: make([]TimingPoint, n)}
		var dirRuntime, snoopTraffic float64
		for i, r := range cells {
			wt.Points[i] = TimingPoint{
				Config:       r.Config,
				RuntimeNs:    r.Result.RuntimeNs,
				BytesPerMiss: r.Result.BytesPerMiss(),
				AvgLatencyNs: r.Result.AvgMissLatencyNs,
			}
			switch def.Sims[i].Protocol {
			case destset.ProtocolDirectory:
				dirRuntime = r.Result.RuntimeNs
			case destset.ProtocolSnooping:
				snoopTraffic = r.Result.BytesPerMiss()
			}
		}
		for i := range wt.Points {
			if dirRuntime > 0 {
				wt.Points[i].NormRuntime = 100 * wt.Points[i].RuntimeNs / dirRuntime
			}
			if snoopTraffic > 0 {
				wt.Points[i].NormTraffic = 100 * wt.Points[i].BytesPerMiss / snoopTraffic
			}
		}
		out[wi] = wt
	}
	return out, nil
}

// Figure7 reproduces the simple-processor-model runtime results for all
// workloads (§5.3). It honors ctx: on cancellation the partial sweep is
// abandoned promptly and the context's error returned.
func Figure7(ctx context.Context, opt Options) ([]WorkloadTiming, error) {
	return runTimingAll(ctx, opt, destset.SimpleCPU)
}

// Figure8Workloads are the three workloads the paper ran under the
// detailed processor model (simulation cost forced the reduction, §5.3).
var Figure8Workloads = []string{"apache", "oltp", "specjbb"}

// Figure8 reproduces the detailed-processor-model results (§5.3).
func Figure8(ctx context.Context, opt Options) ([]WorkloadTiming, error) {
	return runTimingAll(ctx, opt, destset.DetailedCPU)
}
