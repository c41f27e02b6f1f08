package destset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"destset/internal/sweep"
)

// Sweep plans. A Runner's or TimingRunner's cells have always run in one
// deterministic order; SweepPlan names that order: every cell gets a
// stable PlanCell (a fingerprint of spec × workload × seed plus the
// measurement scale) and the plan is fingerprinted over its cells. Two
// processes that build the same runner — same specs, seeds, scale — in
// any order of events compute byte-identical plans, which is what makes
// sharded execution safe: shard processes agree on the cell index space
// up front, each runs its own list of cells (WithCells), and merge tools
// reject outputs whose plan fingerprints differ instead of silently
// combining different experiments.

// PlanCell is the stable identity of one sweep cell: its display
// coordinates plus a fingerprint of everything that determines the
// cell's result. Shard manifests carry it under these field names, in
// this order.
type PlanCell struct {
	// Engine labels the cell's engine or sim spec.
	Engine string
	// Workload labels the cell's workload.
	Workload string
	// Seed is the cell's workload generation seed.
	Seed uint64
	// Fingerprint is a stable hash of the cell's full coordinates —
	// identical across processes, so shard manifests written by
	// independent processes agree.
	Fingerprint string
}

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
	kind        string
	cells       []PlanCell
	fingerprint string
}

// newSweepPlan makes cells, already in execution order, a plan of kind;
// the plan keeps the slice. Its fingerprint covers every cell's
// fingerprint in order, so any difference in specs, workloads, seeds,
// scale or ordering yields a different plan.
func newSweepPlan(kind string, cells []PlanCell) *SweepPlan {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = c.Fingerprint
	}
	return &SweepPlan{kind: kind, cells: cells, fingerprint: fingerprintParts(parts...)}
}

// fingerprintParts hashes an ordered list of canonical strings into a
// stable 32-hex-digit digest. Each part is length-prefixed, so part
// boundaries cannot alias.
func fingerprintParts(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Kind returns PlanKindTrace or PlanKindTiming.
func (p *SweepPlan) Kind() string { return p.kind }

// Len returns the number of cells.
func (p *SweepPlan) Len() int { return len(p.cells) }

// Cell returns cell i in execution order.
func (p *SweepPlan) Cell(i int) PlanCell { return p.cells[i] }

// Cells returns every cell in execution order. The returned slice is
// shared; do not mutate.
func (p *SweepPlan) Cells() []PlanCell { return p.cells }

// Fingerprint returns the plan's stable fingerprint: a pure function of
// the runner's kind, specs, workloads, scale and seeds, identical across
// processes.
func (p *SweepPlan) Fingerprint() string { return p.fingerprint }

// ShardIndices returns the cell indices shard shard of shards owns, in
// execution order — the list a shard process runs through WithCells.
// The split is round-robin: shard s of n owns the indices s, s+n, s+2n,
// ..., which balances shards even when cost varies systematically along
// the plan order (one workload's cells being uniformly heavier, say). A
// shard past the last cell owns none, and with shards <= 1 (ParseShard's
// unsharded 0/0 included) shard 0 owns every cell.
func (p *SweepPlan) ShardIndices(shard, shards int) ([]int, error) {
	n := max(shards, 1)
	if shard < 0 || shard >= n {
		return nil, fmt.Errorf("destset: shard %d of %d out of range", shard, shards)
	}
	out := make([]int, 0, (len(p.cells)-shard+n-1)/n)
	for i := shard; i < len(p.cells); i += n {
		out = append(out, i)
	}
	return out, nil
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
// -shard flag, whose cells ShardIndices(i, n) lists. "" means
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

// The spec fingerprints render a fixed "nodes=0": the workload's dataset
// fixes the node count, and the field keeps every fingerprint —
// result-store keys, coordinator state dirs — equal to those of stores
// and state dirs written when specs could override the count.

// fingerprintEngineSpec renders an EngineSpec canonically: every field
// that affects the built engine, with pointer fields dereferenced so the
// rendering is stable across processes.
func fingerprintEngineSpec(s EngineSpec) string {
	pred := ""
	if s.Predictor != nil {
		pred = fmt.Sprintf("%#v", *s.Predictor)
	}
	return fmt.Sprintf("engine|protocol=%s|policyName=%s|policy=%d|usePolicy=%t|predictor=%s|nodes=0|label=%s",
		s.Protocol, s.PolicyName, int(s.Policy), s.UsePolicy, pred, s.Label)
}

// fingerprintSimSpec renders a SimSpec canonically, including every
// Table-4 knob override.
func fingerprintSimSpec(s SimSpec) string {
	pred := ""
	if s.Predictor != nil {
		pred = fmt.Sprintf("%#v", *s.Predictor)
	}
	return fmt.Sprintf("sim|protocol=%s|policyName=%s|policy=%d|usePolicy=%t|predictor=%s|cpu=%d|nodes=0|link=%g|traversal=%g|l2=%g|mem=%g|mshrs=%d|rob=%d|attempts=%d|label=%s",
		s.Protocol, s.PolicyName, int(s.Policy), s.UsePolicy, pred, int(s.CPU),
		s.LinkBytesPerNs, s.TraversalNs, s.L2LatencyNs, s.MemLatencyNs, s.MSHRs, s.ROBWindow, s.MaxAttempts, s.Label)
}

// fingerprintWorkloadSpec renders a WorkloadSpec canonically at its
// resolved scale: its full generation identity.
func fingerprintWorkloadSpec(s WorkloadSpec, defWarm, defMeasure int) string {
	warm, measure := scaleOf(s.Warm, s.Measure, defWarm, defMeasure)
	src := "name:" + s.Name
	if s.Params != nil {
		src = "params:" + fmt.Sprintf("%#v", *s.Params)
	}
	return fmt.Sprintf("workload|%s|nodes=0|warm=%d|measure=%d", src, warm, measure)
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
			Fingerprint: fingerprintParts(
				kindFP, sfps[c.S], wfps[c.W], "seed="+strconv.FormatUint(c.Seed, 10)),
		}
	}
	return newSweepPlan(kind, cells), nil
}

// Plan returns the runner's sweep plan: its cells in execution order
// with stable fingerprints. The plan does not depend on WithCells — all
// shards of a sweep share one plan.
func (r *Runner) Plan() (*SweepPlan, error) {
	return buildPlan(PlanKindTrace, r.engines, fingerprintEngineSpec, r.workloads, r.cfg,
		"destset: Runner needs at least one engine spec and one workload spec")
}

// Plan returns the timing runner's sweep plan: its cells in execution
// order with stable fingerprints. The plan does not depend on WithCells
// — all shards of a sweep share one plan.
func (r *TimingRunner) Plan() (*SweepPlan, error) {
	return buildPlan(PlanKindTiming, r.sims, fingerprintSimSpec, r.workloads, r.cfg,
		"destset: TimingRunner needs at least one sim spec and one workload spec")
}
