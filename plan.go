package destset

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"destset/internal/sweep"
)

// Sweep plans. A Runner's or TimingRunner's cells have always run in one
// deterministic order; SweepPlan names that order: every cell gets a
// stable CellID (a fingerprint of spec × workload × seed plus the
// measurement scale) and the plan is fingerprinted over its cells. Two
// processes that build the same runner — same specs, seeds, scale — in
// any order of events compute byte-identical plans, which is what makes
// sharded execution safe: shard processes agree on the cell index space
// up front, and merge tools reject outputs whose plan fingerprints
// differ instead of silently combining different experiments.

// PlanCell is the stable identity of one sweep cell.
type PlanCell = sweep.CellID

// Plan kinds, naming which runner a plan (and a shard manifest) belongs
// to.
const (
	PlanKindTrace  = "trace"  // trace-driven Runner cells
	PlanKindTiming = "timing" // execution-driven TimingRunner cells
)

// SweepPlan is a runner's full cell list in execution order
// (workload-major: for each workload, for each engine/sim spec, for each
// seed), with a stable fingerprint over the whole.
type SweepPlan struct {
	kind string
	plan *sweep.Plan
}

// Kind returns PlanKindTrace or PlanKindTiming.
func (p *SweepPlan) Kind() string { return p.kind }

// Len returns the number of cells.
func (p *SweepPlan) Len() int { return p.plan.Len() }

// Cell returns cell i in execution order.
func (p *SweepPlan) Cell(i int) PlanCell { return p.plan.Cell(i) }

// Cells returns every cell in execution order. The returned slice is
// shared; do not mutate.
func (p *SweepPlan) Cells() []PlanCell { return p.plan.Cells() }

// Fingerprint returns the plan's stable fingerprint: a pure function of
// the runner's kind, specs, workloads, scale and seeds, identical across
// processes.
func (p *SweepPlan) Fingerprint() string { return p.plan.Fingerprint() }

// ShardIndices returns the global cell indices shard shard of shards
// executes (see WithShard).
func (p *SweepPlan) ShardIndices(shard, shards int) ([]int, error) {
	return p.plan.Shard(shard, shards)
}

// Manifest returns the shard-manifest record describing shard shard of
// shards of this plan, as written at the head of a shard's JSONL
// observation file.
func (p *SweepPlan) Manifest(shard, shards int) ShardManifest {
	if shards <= 1 {
		shard, shards = 0, 1
	}
	return ShardManifest{
		Format:  ManifestFormat,
		Version: ManifestVersion,
		Kind:    p.kind,
		Plan:    p.Fingerprint(),
		Shard:   shard,
		Shards:  shards,
		Cells:   p.Cells(),
	}
}

// ParseShard parses the "i/n" shard selector the cmds accept as their
// -shard flag — the textual form of WithShard(i, n). "" means
// unsharded (0, 0); anything else must be exactly two integers with
// 0 <= i < n.
func ParseShard(s string) (shard, shards int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	left, right, ok := strings.Cut(s, "/")
	if ok {
		var errI, errN error
		shard, errI = strconv.Atoi(left)
		shards, errN = strconv.Atoi(right)
		ok = errI == nil && errN == nil && shards >= 1 && shard >= 0 && shard < shards
	}
	if !ok {
		return 0, 0, fmt.Errorf("destset: invalid shard %q (want i/n with 0 <= i < n)", s)
	}
	return shard, shards, nil
}

// scaleOf applies the runner's default measurement scale to a spec's
// own: 0 inherits the default, negative means "explicitly none".
func scaleOf(specWarm, specMeasure, defWarm, defMeasure int) (warm, measure int) {
	warm, measure = specWarm, specMeasure
	if warm == 0 {
		warm = defWarm
	}
	if measure == 0 {
		measure = defMeasure
	}
	if warm < 0 {
		warm = 0
	}
	if measure < 0 {
		measure = 0
	}
	return warm, measure
}

// fingerprintEngineSpec renders an EngineSpec canonically: every field
// that affects the built engine, with pointer fields dereferenced so the
// rendering is stable across processes.
func fingerprintEngineSpec(s EngineSpec) string {
	pred := ""
	if s.Predictor != nil {
		pred = fmt.Sprintf("%#v", *s.Predictor)
	}
	return fmt.Sprintf("engine|protocol=%s|policyName=%s|policy=%d|usePolicy=%t|predictor=%s|nodes=%d|label=%s",
		s.Protocol, s.PolicyName, int(s.Policy), s.UsePolicy, pred, s.Nodes, s.Label)
}

// fingerprintSimSpec renders a SimSpec canonically, including every
// Table-4 knob override.
func fingerprintSimSpec(s SimSpec) string {
	pred := ""
	if s.Predictor != nil {
		pred = fmt.Sprintf("%#v", *s.Predictor)
	}
	return fmt.Sprintf("sim|protocol=%s|policyName=%s|policy=%d|usePolicy=%t|predictor=%s|cpu=%d|nodes=%d|link=%g|traversal=%g|l2=%g|mem=%g|mshrs=%d|rob=%d|attempts=%d|label=%s",
		s.Protocol, s.PolicyName, int(s.Policy), s.UsePolicy, pred, int(s.CPU), s.Nodes,
		s.LinkBytesPerNs, s.TraversalNs, s.L2LatencyNs, s.MemLatencyNs, s.MSHRs, s.ROBWindow, s.MaxAttempts, s.Label)
}

// fingerprintWorkloadSpec renders a WorkloadSpec canonically at its
// resolved scale. Name- and Params-based specs fingerprint their full
// generation identity; a custom Open source contributes only its label
// and shape — processes sharding a sweep over custom sources are
// responsible for supplying the same stream on every shard.
func fingerprintWorkloadSpec(s WorkloadSpec, defWarm, defMeasure int) string {
	warm, measure := scaleOf(s.Warm, s.Measure, defWarm, defMeasure)
	src := ""
	switch {
	case s.Open != nil:
		src = "open:" + s.label()
	case s.Params != nil:
		src = "params:" + fmt.Sprintf("%#v", *s.Params)
	default:
		src = "name:" + s.Name
	}
	return fmt.Sprintf("workload|%s|nodes=%d|warm=%d|measure=%d", src, s.Nodes, warm, measure)
}

// buildPlan enumerates a runner's cells workload-major with stable
// fingerprints, validating its specs first; empty is the error for a
// runner without specs or workloads. Trace plans fold the observation
// interval in: it does not change cell results, but it changes the
// observation stream shard files carry, and two streams of different
// granularity must not merge as one sweep. The interval is meaningless
// to timing cells (one observation each), so timing plans ignore it.
func buildPlan[S interface {
	validate() error
	DisplayLabel() string
}](kind string, specs []S, fingerprint func(S) string, workloads []WorkloadSpec, cfg runnerConfig, empty string) (*SweepPlan, error) {
	if len(specs) == 0 || len(workloads) == 0 {
		return nil, errors.New(empty)
	}
	labels := make([]string, len(specs))
	sfps := make([]string, len(specs))
	for i, s := range specs {
		if err := s.validate(); err != nil {
			return nil, err
		}
		labels[i], sfps[i] = s.DisplayLabel(), fingerprint(s)
	}
	kindFP := kind
	if kind == PlanKindTrace {
		kindFP += "|interval=" + strconv.Itoa(cfg.interval)
	}
	wfps := make([]string, len(workloads))
	for i, w := range workloads {
		wfps[i] = fingerprintWorkloadSpec(w, cfg.warm, cfg.measure)
	}
	coords := sweep.Cross(len(workloads), len(specs), cfg.seeds)
	cells := make([]PlanCell, len(coords))
	for i, c := range coords {
		cells[i] = PlanCell{
			Engine:   labels[c.S],
			Workload: workloads[c.W].label(),
			Seed:     c.Seed,
			Fingerprint: sweep.Fingerprint(
				kindFP, sfps[c.S], wfps[c.W], "seed="+strconv.FormatUint(c.Seed, 10)),
		}
	}
	return &SweepPlan{kind: kind, plan: sweep.NewPlan(cells)}, nil
}

// Plan returns the runner's sweep plan: its cells in execution order
// with stable fingerprints. The plan does not depend on WithShard — all
// shards of a sweep share one plan.
func (r *Runner) Plan() (*SweepPlan, error) {
	return buildPlan(PlanKindTrace, r.engines, fingerprintEngineSpec, r.workloads, r.cfg,
		"destset: Runner needs at least one engine spec and one workload spec")
}

// Plan returns the timing runner's sweep plan: its cells in execution
// order with stable fingerprints. The plan does not depend on WithShard
// — all shards of a sweep share one plan.
func (r *TimingRunner) Plan() (*SweepPlan, error) {
	return buildPlan(PlanKindTiming, r.sims, fingerprintSimSpec, r.workloads, r.cfg,
		"destset: TimingRunner needs at least one sim spec and one workload spec")
}

// MergeResults reassembles per-shard Run outputs into the exact
// full-run result slice of plan's sweep: shards[s] must be the output
// of a Runner or TimingRunner of that plan run with WithShard(s,
// len(shards)). Every merged cell is checked against the plan's
// coordinates, so mixing shards of different sweeps — or supplying them
// out of order — fails instead of silently mislabeling results.
func MergeResults[T RunResult | TimingResult](plan *SweepPlan, shards [][]T) ([]T, error) {
	merged, err := sweep.MergeShards(plan.Len(), shards)
	if err != nil {
		return nil, err
	}
	for i, res := range merged {
		var label, workload string
		var seed uint64
		switch r := any(res).(type) {
		case RunResult:
			label, workload, seed = r.Engine, r.Workload, r.Seed
		case TimingResult:
			label, workload, seed = r.Sim, r.Workload, r.Seed
		}
		if c := plan.Cell(i); label != c.Engine || workload != c.Workload || seed != c.Seed {
			return nil, fmt.Errorf("destset: merged cell %d is (%s, %s, seed %d), plan expects (%s, %s, seed %d)",
				i, label, workload, seed, c.Engine, c.Workload, c.Seed)
		}
	}
	return merged, nil
}
