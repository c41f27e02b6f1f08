package experiments

import (
	"context"
	"fmt"

	"destset"
	"destset/internal/predictor"
)

// The experiments in this file go beyond the paper's figures into the
// questions the paper raises but does not plot:
//
//   - BandwidthSweep: §5.3 deliberately simulates "ample bandwidth" and
//     notes that "which protocol performs best depends upon ... the
//     available interconnect bandwidth". The sweep varies link bandwidth
//     and locates the crossover where broadcast snooping stops winning.
//   - HybridComparison: §1/§6 describe the alternative hybrid — Acacio et
//     al.'s owner prediction on a plain directory protocol. The
//     comparison puts both hybrids on the same trace.
//   - OracleLimit: the realizable-prediction bound — a predictor that
//     knows the exact needed set.
//   - Ablations: design choices Table 3 fixes without justification
//     (the 5-bit rollover counter, 4-way predictor tables).

// BandwidthPoint is one protocol at one link bandwidth.
type BandwidthPoint struct {
	Config     string
	BytesPerNs float64
	RuntimeNs  float64
}

// BandwidthSweep runs snooping, directory and Multicast+Group over a
// range of link bandwidths on one workload (default OLTP) with the simple
// CPU model. At high bandwidth snooping wins on latency; as bandwidth
// shrinks its broadcasts saturate the links and the bandwidth-efficient
// protocols overtake it. Each (protocol, bandwidth) point is one SimSpec
// with a LinkBytesPerNs override, fanned over the TimingRunner.
func BandwidthSweep(ctx context.Context, opt Options, bandwidthsBytesPerNs []float64) ([]BandwidthPoint, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	name := "oltp"
	if len(opt.Workloads) > 0 {
		name = opt.Workloads[0]
	}
	base := []destset.SimSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
		{Protocol: destset.ProtocolMulticast, Policy: predictor.Group, UsePolicy: true},
	}
	if len(opt.Protocols) > 0 {
		kept := base[:0]
		for _, s := range base {
			if matchesProtocol(s, opt.Protocols) {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			return nil, fmt.Errorf("experiments: no bandwidth-sweep configuration matches protocols %v", opt.Protocols)
		}
		base = kept
	}
	var specs []destset.SimSpec
	var bws []float64
	for _, bw := range bandwidthsBytesPerNs {
		for _, s := range base {
			s.LinkBytesPerNs = bw
			specs = append(specs, s)
			bws = append(bws, bw)
		}
	}
	def := destset.NewTimingSweepDef(specs, opt.timedWorkloads(name), destset.WithSeeds(opt.Seed))
	res, err := opt.runTiming(ctx, def, nil)
	if err != nil {
		return nil, err
	}
	if len(res) != len(specs) {
		return nil, fmt.Errorf("experiments: bandwidth sweep returned %d cells, want %d", len(res), len(specs))
	}
	out := make([]BandwidthPoint, len(res))
	for i, r := range res {
		out[i] = BandwidthPoint{
			Config:     r.Config,
			BytesPerNs: bws[i],
			RuntimeNs:  r.Result.RuntimeNs,
		}
	}
	return out, nil
}

// HybridComparison evaluates the two hybrid styles the paper's
// introduction contrasts — multicast snooping with destination-set
// prediction versus owner prediction on a directory protocol — against
// the snooping and directory extremes, trace-driven on every selected
// workload. The predictive-directory hybrid rides the same Runner sweep
// as every other engine.
func HybridComparison(opt Options) ([]WorkloadTradeoff, error) {
	specs := append(baselineSpecs(),
		destset.EngineSpec{
			Protocol: destset.ProtocolPredictiveDirectory,
			Policy:   predictor.Owner, UsePolicy: true,
		},
		destset.EngineSpec{
			Protocol: destset.ProtocolMulticast,
			Policy:   predictor.Owner, UsePolicy: true,
		},
	)
	return opt.panels(opt.traceDef(specs, opt.traceWorkloads(opt.names()...)))
}

// OracleLimit reports the perfect-prediction bound next to the best
// realizable predictors on each workload: exact needed sets, zero
// retries.
func OracleLimit(opt Options) ([]WorkloadTradeoff, error) {
	specs := []destset.EngineSpec{
		predictorSpec(predictor.Config{Policy: predictor.Oracle}),
		{Policy: predictor.OwnerGroup, UsePolicy: true},
		{Policy: predictor.Group, UsePolicy: true},
	}
	return opt.panels(opt.traceDef(specs, opt.traceWorkloads(opt.names()...)))
}

// AblationRollover sweeps the Group policy's rollover (training-down)
// counter limit on OLTP. The paper fixes it at 32 (a 5-bit counter);
// the sweep shows the tradeoff it balances: fast decay evicts live
// sharers (more retries), slow decay keeps dead ones (more traffic).
func AblationRollover(opt Options, limits []int) ([]TradeoffPoint, error) {
	specs := baselineSpecs()
	for _, lim := range limits {
		cfg := predictor.DefaultConfig(predictor.Group, 0)
		cfg.GroupRollover = lim
		spec := predictorSpec(cfg)
		spec.Label = fmt.Sprintf("group/roll%d", lim)
		specs = append(specs, spec)
	}
	points, err := sensitivityPoints(opt, specs)
	if err != nil {
		return nil, err
	}
	for i, lim := range limits {
		points[2+i].Config += fmt.Sprintf("/roll%d", lim)
	}
	return points, nil
}

// AblationAssociativity sweeps predictor-table associativity at fixed
// capacity on OLTP. The paper notes macroblock indexing "allows
// set-associative implementations" (§3.5); the sweep quantifies what
// associativity buys over direct-mapped tables.
func AblationAssociativity(opt Options, ways []int) ([]TradeoffPoint, error) {
	specs := baselineSpecs()
	for _, w := range ways {
		cfg := predictor.DefaultConfig(predictor.OwnerGroup, 0)
		cfg.Ways = w
		spec := predictorSpec(cfg)
		spec.Label = fmt.Sprintf("ownergroup/ways%d", w)
		specs = append(specs, spec)
	}
	points, err := sensitivityPoints(opt, specs)
	if err != nil {
		return nil, err
	}
	for i, w := range ways {
		points[2+i].Config += fmt.Sprintf("/ways%d", w)
	}
	return points, nil
}

// MacroblockSweep extends Figure 6(b) with larger macroblocks, verifying
// the paper's remark that sizes beyond 1024 bytes add little (§4.4).
func MacroblockSweep(opt Options, sizes []int) ([]TradeoffPoint, error) {
	specs := baselineSpecs()
	for _, mb := range sizes {
		specs = append(specs, predictorSpec(predictor.Config{
			Policy:   predictor.OwnerGroup,
			Entries:  0,
			Indexing: predictor.Indexing{Mode: predictor.ByBlock, MacroblockBytes: mb},
		}))
	}
	return sensitivityPoints(opt, specs)
}
