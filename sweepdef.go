package destset

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"destset/internal/atomicfile"
	"destset/internal/dataset"
	"destset/internal/sweep"
	"destset/internal/workload"
)

// Serializable sweep definitions. A SweepDef is the wire form of a
// Runner or TimingRunner configuration: the specs, workloads, seeds and
// scale — everything that determines the sweep plan, and nothing that is
// local to one process (parallelism, observers, shard selection).
// Marshal it, ship it to another machine, unmarshal it, and the rebuilt
// runner computes a byte-identical SweepPlan — the property the
// distributed coordinator/worker protocol (internal/distrib, cmd/sweepd)
// is built on: the coordinator serves its def, every worker reconstructs
// the cell index space from it, and the plan fingerprint is the
// handshake that proves they agree.

// SweepDef is a serializable sweep definition of either kind. Exactly
// one of Engines (PlanKindTrace) or Sims (PlanKindTiming) applies,
// matching Kind.
type SweepDef struct {
	// Kind is PlanKindTrace or PlanKindTiming.
	Kind string `json:"kind"`
	// Engines are the trace-driven engine specs (Kind == PlanKindTrace).
	Engines []EngineSpec `json:"engines,omitempty"`
	// Sims are the execution-driven sim specs (Kind == PlanKindTiming).
	Sims []SimSpec `json:"sims,omitempty"`
	// Workloads are the swept workloads.
	Workloads []WorkloadSpec `json:"workloads"`
	// Seeds are the per-cell workload seeds; empty means the runner
	// default {1}.
	Seeds []uint64 `json:"seeds,omitempty"`
	// Warm and Measure are the default scale applied to workloads that
	// set none of their own: 0 means the runner defaults
	// (DefaultWarmMisses / DefaultMeasureMisses), negative means
	// explicitly none — the same contract as WithWarmup / WithMeasure.
	Warm    int `json:"warm,omitempty"`
	Measure int `json:"measure,omitempty"`
	// Interval is the trace-driven observation granularity in misses
	// (WithInterval); it folds into trace plan fingerprints and is
	// ignored by timing sweeps.
	Interval int `json:"interval,omitempty"`
}

// NewTraceSweepDef captures a trace-driven sweep as a serializable
// definition: the same engines, workloads and options NewRunner takes.
// Only the plan-affecting options are recorded (seeds, warmup, measure,
// interval); process-local ones (parallelism, observers, shard
// selection, context) are deliberately dropped — they belong to the
// process that executes, not to the sweep's identity.
func NewTraceSweepDef(engines []EngineSpec, workloads []WorkloadSpec, opts ...RunnerOption) SweepDef {
	cfg := newRunnerConfig(opts)
	return SweepDef{
		Kind:      PlanKindTrace,
		Engines:   append([]EngineSpec(nil), engines...),
		Workloads: append([]WorkloadSpec(nil), workloads...),
		Seeds:     cfg.seeds,
		Warm:      cfg.warm,
		Measure:   cfg.measure,
		Interval:  cfg.interval,
	}
}

// NewTimingSweepDef captures an execution-driven timing sweep as a
// serializable definition — the timing analogue of NewTraceSweepDef.
func NewTimingSweepDef(sims []SimSpec, workloads []WorkloadSpec, opts ...RunnerOption) SweepDef {
	cfg := newRunnerConfig(opts)
	return SweepDef{
		Kind:      PlanKindTiming,
		Sims:      append([]SimSpec(nil), sims...),
		Workloads: append([]WorkloadSpec(nil), workloads...),
		Seeds:     cfg.seeds,
		Warm:      cfg.warm,
		Measure:   cfg.measure,
	}
}

// Validate checks the definition is complete and names only registered
// protocols, policies and workloads — everything a worker needs to
// verify before executing cells from it.
func (d SweepDef) Validate() error {
	switch d.Kind {
	case PlanKindTrace:
		if len(d.Engines) == 0 {
			return fmt.Errorf("destset: trace sweep def needs at least one engine spec")
		}
		if len(d.Sims) != 0 {
			return fmt.Errorf("destset: trace sweep def must not carry sim specs")
		}
		for _, e := range d.Engines {
			if err := e.validate(); err != nil {
				return err
			}
		}
	case PlanKindTiming:
		if len(d.Sims) == 0 {
			return fmt.Errorf("destset: timing sweep def needs at least one sim spec")
		}
		if len(d.Engines) != 0 {
			return fmt.Errorf("destset: timing sweep def must not carry engine specs")
		}
		for _, s := range d.Sims {
			if err := s.validate(); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("destset: sweep def kind %q (want %q or %q)", d.Kind, PlanKindTrace, PlanKindTiming)
	}
	if len(d.Workloads) == 0 {
		return fmt.Errorf("destset: sweep def needs at least one workload spec")
	}
	for _, w := range d.Workloads {
		if w.Params == nil && w.Name == "" {
			return fmt.Errorf("destset: workload spec needs a Name or Params")
		}
		if w.Params == nil {
			if _, err := workload.Preset(w.Name, 0); err != nil {
				return err
			}
		} else if err := w.Params.Validate(); err != nil {
			return fmt.Errorf("destset: workload %q: %w", w.label(), err)
		}
	}
	return nil
}

// runnerOptions rebuilds the plan-affecting runner options the def
// records, appending the caller's process-local extras.
func (d SweepDef) runnerOptions(extra []RunnerOption) []RunnerOption {
	opts := make([]RunnerOption, 0, 4+len(extra))
	if len(d.Seeds) > 0 {
		opts = append(opts, WithSeeds(d.Seeds...))
	}
	// 0 keeps the runner defaults, exactly as an absent option would.
	if d.Warm != 0 {
		opts = append(opts, WithWarmup(d.Warm))
	}
	if d.Measure != 0 {
		opts = append(opts, WithMeasure(d.Measure))
	}
	if d.Interval != 0 {
		opts = append(opts, WithInterval(d.Interval))
	}
	return append(opts, extra...)
}

// Runner rebuilds the trace-driven Runner the definition describes.
// extra options are process-local (parallelism, observers, WithShard,
// WithCells); passing plan-affecting ones here would desynchronize this
// process from every other holder of the def, so don't.
func (d SweepDef) Runner(extra ...RunnerOption) (*Runner, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Kind != PlanKindTrace {
		return nil, fmt.Errorf("destset: sweep def kind %q is not a trace sweep", d.Kind)
	}
	return NewRunner(d.Engines, d.Workloads, d.runnerOptions(extra)...), nil
}

// TimingRunner rebuilds the execution-driven TimingRunner the definition
// describes; see Runner for the extra-options contract.
func (d SweepDef) TimingRunner(extra ...RunnerOption) (*TimingRunner, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Kind != PlanKindTiming {
		return nil, fmt.Errorf("destset: sweep def kind %q is not a timing sweep", d.Kind)
	}
	return NewTimingRunner(d.Sims, d.Workloads, d.runnerOptions(extra)...), nil
}

// Plan computes the definition's sweep plan. Every process that holds an
// equal def — however it got it, including over the wire — computes a
// byte-identical plan.
func (d SweepDef) Plan() (*SweepPlan, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Kind == PlanKindTrace {
		r, err := d.Runner()
		if err != nil {
			return nil, err
		}
		return r.Plan()
	}
	r, err := d.TimingRunner()
	if err != nil {
		return nil, err
	}
	return r.Plan()
}

// SweepDataset names one shared dataset a sweep replays: a serializable
// workload at one seed and resolved scale. The coordinator pre-announces
// a sweep's datasets so workers pointed at a shared dataset directory
// can resolve them all — warm-dir loads, not regenerations — before
// leasing any cells.
type SweepDataset struct {
	Workload WorkloadSpec `json:"workload"`
	Seed     uint64       `json:"seed"`
	// Warm and Measure are the resolved generation scale in misses (the
	// def's defaults already applied).
	Warm    int `json:"warm"`
	Measure int `json:"measure"`
}

// params resolves the dataset's fully-specified workload parameters
// (seed already applied) — the identity its content address hashes.
func (sd SweepDataset) params() (workload.Params, error) {
	return sd.Workload.paramsAt(sd.Seed)
}

// key derives the dataset's tiered-store key from its fields.
func (sd SweepDataset) key() (dataset.Key, error) {
	p, err := sd.params()
	if err != nil {
		return dataset.Key{}, err
	}
	return dataset.KeyOf(p, sd.Warm, sd.Measure), nil
}

// Prewarm materializes the dataset through the process-wide tiered
// store: a memory hit, else a dataset-dir load, else a generation (which
// spills to the dir for the rest of the fleet).
func (sd SweepDataset) Prewarm() error {
	p, err := sd.params()
	if err != nil {
		return err
	}
	key, err := sd.key()
	if err != nil {
		return err
	}
	_, err = dataset.Shared.Get(key, func() (*dataset.Dataset, error) {
		return dataset.Generate(p, sd.Warm, sd.Measure)
	})
	return err
}

// ContentKey returns the dataset's content address — the fixed-width
// hex name its file lives under in any dataset directory, and the key
// workers use to fetch it over the wire (GET /v1/dataset/{key}). Both
// sides derive the address independently from the announced
// SweepDataset, so a coordinator and worker that disagree about a
// workload's identity can never exchange bytes for it.
func (sd SweepDataset) ContentKey() (string, error) {
	key, err := sd.key()
	if err != nil {
		return "", err
	}
	return key.Addr(), nil
}

// Cached reports whether the dataset is resident in the process-wide
// store's memory tier right now.
func (sd SweepDataset) Cached() bool {
	key, err := sd.key()
	if err != nil {
		return false
	}
	return dataset.Shared.Contains(key)
}

// Stored reports whether the dataset's content-addressed file under dir
// loads and re-derives the dataset's key — the file dataset.Install
// would keep. A missing, torn or mismatched file is not stored.
func (sd SweepDataset) Stored(dir string) bool {
	key, err := sd.key()
	return err == nil && dir != "" && dataset.Check(key.Path(dir), key) == nil
}

// InstallTo streams r into the dataset's content-addressed file under
// dir with the fetch-receipt discipline: the bytes land in a temporary
// file, are fully validated (header, layout, payload CRC, and decoded
// identity against this dataset's key), and only then renamed into
// place — a truncated, corrupted or mislabeled transfer never becomes
// visible to the store. Returns the installed byte count.
func (sd SweepDataset) InstallTo(dir string, r io.Reader) (int64, error) {
	key, err := sd.key()
	if err != nil {
		return 0, err
	}
	if dir == "" {
		return 0, fmt.Errorf("destset: no dataset directory to install into")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var n int64
	err = atomicfile.Write(nil, key.Path(dir), func(f *os.File) error {
		if n, err = io.Copy(f, r); err != nil {
			return err
		}
		return dataset.Check(f.Name(), key)
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// SpillTo materializes the dataset's content-addressed file under dir
// and returns its path — the coordinator's serving primitive. An
// existing valid file is reused as-is; otherwise the dataset is
// generated (without touching the process-wide store) and written
// atomically (dataset.Install). Generation is deterministic, so every
// process spilling the same key writes byte-identical files.
func (sd SweepDataset) SpillTo(dir string) (string, error) {
	p, err := sd.params()
	if err != nil {
		return "", err
	}
	key, err := sd.key()
	if err != nil {
		return "", err
	}
	return dataset.Install(dir, key, func() (*dataset.Dataset, error) {
		return dataset.Generate(p, sd.Warm, sd.Measure)
	})
}

// Datasets enumerates the shared datasets the sweep's cells replay at
// the resolved scale, one per content key, in plan order of first use.
// A generated workload has one dataset per seed; an imported trace
// ignores the seed, so all its cells share one.
func (d SweepDef) Datasets() ([]SweepDataset, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cfg := newRunnerConfig(d.runnerOptions(nil))
	out := make([]SweepDataset, 0, len(d.Workloads)*len(cfg.seeds))
	seen := make(map[dataset.Key]bool, cap(out))
	for _, w := range d.Workloads {
		warm, measure := scaleOf(w.Warm, w.Measure, cfg.warm, cfg.measure)
		for _, seed := range cfg.seeds {
			sd := SweepDataset{Workload: w, Seed: seed, Warm: warm, Measure: measure}
			key, err := sd.key()
			if err != nil {
				return nil, err
			}
			if !seen[key] {
				seen[key] = true
				out = append(out, sd)
			}
		}
	}
	return out, nil
}

// sweepPlanJSON is SweepPlan's wire form: kind, fingerprint and the full
// cell list.
type sweepPlanJSON struct {
	Kind  string     `json:"kind"`
	Plan  string     `json:"plan"`
	Cells []PlanCell `json:"cells"`
}

// MarshalJSON serializes the plan: its kind, fingerprint and cells — the
// same fields a ShardManifest carries.
func (p *SweepPlan) MarshalJSON() ([]byte, error) {
	return json.Marshal(sweepPlanJSON{Kind: p.kind, Plan: p.Fingerprint(), Cells: p.Cells()})
}

// UnmarshalJSON rebuilds a plan from its wire form and verifies the
// recorded fingerprint against the one recomputed from the cells, so a
// corrupted or hand-edited plan is rejected instead of silently renaming
// an experiment.
func (p *SweepPlan) UnmarshalJSON(raw []byte) error {
	var pj sweepPlanJSON
	if err := json.Unmarshal(raw, &pj); err != nil {
		return err
	}
	rebuilt, err := rebuildPlan(pj.Kind, pj.Plan, pj.Cells)
	if err != nil {
		return err
	}
	*p = *rebuilt
	return nil
}

// rebuildPlan restores a serialized plan — a JSON plan or a shard
// manifest — from its kind, fingerprint and cells, refusing cells that
// do not hash to the fingerprint.
func rebuildPlan(kind, fingerprint string, cells []PlanCell) (*SweepPlan, error) {
	if kind != PlanKindTrace && kind != PlanKindTiming {
		return nil, fmt.Errorf("destset: sweep plan kind %q (want %q or %q)", kind, PlanKindTrace, PlanKindTiming)
	}
	plan := sweep.NewPlan(cells)
	if plan.Fingerprint() != fingerprint {
		return nil, fmt.Errorf("destset: sweep plan fingerprint %s does not match its cells (recomputed %s)",
			fingerprint, plan.Fingerprint())
	}
	return &SweepPlan{kind: kind, plan: plan}, nil
}
