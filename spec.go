package destset

import (
	"fmt"

	"destset/internal/dataset"
	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/sweep"
	"destset/internal/workload"
)

// Protocol engine names understood by EngineSpec.Protocol (additional
// names become available through RegisterEngine).
const (
	ProtocolSnooping            = protocol.SnoopingName
	ProtocolDirectory           = protocol.DirectoryName
	ProtocolMulticast           = protocol.MulticastName
	ProtocolPredictiveDirectory = protocol.PredictiveDirectoryName
)

// EngineSpec is a value description of one protocol engine: which
// protocol to account under and, for prediction-based protocols, which
// policy and predictor configuration to use. Specs are inert data — the
// Runner builds a fresh engine from the spec for every sweep cell, so
// the same spec can appear in many concurrent runs.
type EngineSpec struct {
	// Protocol is a registered engine name (see ProtocolSnooping and
	// friends). Empty selects ProtocolMulticast when a policy is
	// configured and is an error otherwise.
	Protocol string
	// PolicyName is a registered prediction policy name ("owner",
	// "group", a custom RegisterPolicy name, ...). Built-in names are
	// matched case-insensitively.
	PolicyName string
	// Policy selects a built-in policy by value; it is consulted only
	// when PolicyName is empty and Predictor is nil.
	Policy Policy
	// UsePolicy marks the Policy field as intentionally set (the zero
	// Policy is Owner, so a flag is needed to distinguish "unset").
	UsePolicy bool
	// Predictor overrides the predictor configuration. Nil uses the
	// paper's standout configuration (DefaultPredictorConfig) for the
	// selected policy. The Nodes field may be left 0 to inherit the
	// workload's node count.
	Predictor *PredictorConfig
	// Nodes overrides the system size; 0 inherits the workload's.
	Nodes int
	// Label overrides the engine's display label in results and
	// observations; empty derives one from the protocol and policy.
	Label string
}

// SpecForPolicy returns the EngineSpec EvaluatePolicy uses for a
// built-in policy: broadcast snooping for Broadcast, the directory
// protocol for Minimal, and multicast snooping with the paper's
// standout predictor configuration for everything else.
func SpecForPolicy(p Policy) EngineSpec {
	switch p {
	case Broadcast:
		return EngineSpec{Protocol: ProtocolSnooping}
	case Minimal:
		return EngineSpec{Protocol: ProtocolDirectory}
	default:
		return EngineSpec{Protocol: ProtocolMulticast, Policy: p, UsePolicy: true}
	}
}

// protocolName resolves the engine name, defaulting predictor-equipped
// specs to multicast snooping.
func (s EngineSpec) protocolName() string {
	if s.Protocol != "" {
		return s.Protocol
	}
	if s.hasPolicy() {
		return ProtocolMulticast
	}
	return ""
}

func (s EngineSpec) hasPolicy() bool {
	return s.PolicyName != "" || s.UsePolicy || s.Predictor != nil
}

// DisplayLabel returns the label used for this spec in results and
// observations.
func (s EngineSpec) DisplayLabel() string {
	if s.Label != "" {
		return s.Label
	}
	name := s.protocolName()
	if name == "" {
		name = "engine"
	}
	switch {
	case s.PolicyName != "":
		return name + "+" + predictor.CanonicalName(s.PolicyName)
	case s.UsePolicy:
		return name + "+" + predictor.CanonicalName(s.Policy.String())
	case s.Predictor != nil:
		return name + "+" + predictor.CanonicalName(s.Predictor.Policy.String())
	default:
		return name
	}
}

// validate resolves the spec's names eagerly, so that a typo'd policy
// or protocol fails before any sweep work starts (the Runner calls it
// for every engine spec up front).
func (s EngineSpec) validate() error {
	name := s.protocolName()
	if name == "" {
		return fmt.Errorf("destset: engine spec needs a protocol or a policy")
	}
	if !protocol.HasEngine(name) {
		return fmt.Errorf("destset: unknown engine %q (have %v)", name, protocol.EngineNames())
	}
	if s.PolicyName != "" {
		if _, ok := predictor.LookupFactory(s.PolicyName); !ok {
			return fmt.Errorf("destset: unknown policy %q (have %v)",
				s.PolicyName, predictor.RegisteredPolicies())
		}
	}
	return nil
}

// bankFactory resolves the spec's predictor policy into a bank factory,
// or nil when no policy is configured. An explicit Predictor config is
// used verbatim (aside from filling Nodes); otherwise the Policy /
// PolicyName selection gets the paper's standout configuration.
func (s EngineSpec) bankFactory(nodes int) (func() []predictor.Predictor, error) {
	if !s.hasPolicy() {
		return nil, nil
	}
	cfg := predictor.DefaultConfig(s.Policy, nodes)
	if s.Predictor != nil {
		cfg = *s.Predictor
		if cfg.Nodes == 0 {
			cfg.Nodes = nodes
		}
	}
	if s.PolicyName != "" {
		factory, ok := predictor.LookupFactory(s.PolicyName)
		if !ok {
			return nil, fmt.Errorf("destset: unknown policy %q (have %v)",
				s.PolicyName, predictor.RegisteredPolicies())
		}
		return func() []predictor.Predictor {
			bank := make([]predictor.Predictor, cfg.Nodes)
			for i := range bank {
				bank[i] = factory(cfg)
			}
			return bank
		}, nil
	}
	return func() []predictor.Predictor { return predictor.NewBank(cfg) }, nil
}

// NewEngine builds one fresh engine from the spec for a system of the
// given node count (0 uses the spec's own Nodes, which must then be
// set). Engines built this way have full Reset/Clone fidelity.
func (s EngineSpec) NewEngine(nodes int) (Engine, error) {
	if s.Nodes > 0 {
		nodes = s.Nodes
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("destset: engine spec %q needs a node count", s.DisplayLabel())
	}
	name := s.protocolName()
	if name == "" {
		return nil, fmt.Errorf("destset: engine spec needs a protocol or a policy")
	}
	newBank, err := s.bankFactory(nodes)
	if err != nil {
		return nil, err
	}
	return protocol.NewByName(name, protocol.Spec{Nodes: nodes, NewBank: newBank})
}

// sweepEngine adapts the spec for the sweep runner.
func (s EngineSpec) sweepEngine() sweep.Engine {
	return sweep.Engine{
		Label: s.DisplayLabel(),
		New: func(nodes int) (protocol.Engine, error) {
			return s.NewEngine(nodes)
		},
	}
}

// Stream produces a workload's miss stream: one coherence request plus
// its oracle annotation per call. *Generator implements Stream, and so
// can replayers over recorded traces.
type Stream = sweep.Stream

// WorkloadSpec is a value description of one workload and its
// measurement scale. Exactly one of three sources applies, in priority
// order: Open (a custom stream source), Params (explicit parameters),
// or Name (a registered preset).
type WorkloadSpec struct {
	// Name is a registered workload preset name; it also labels the
	// workload in results when Params or Open is used.
	Name string
	// Params overrides the preset lookup with explicit parameters. The
	// Seed field is replaced by the sweep cell's seed.
	Params *WorkloadParams
	// Open overrides generation entirely with a custom stream source —
	// for example a replayer over a recorded trace. Each call must
	// return a fresh stream positioned at the beginning; Nodes must be
	// set when Open is used.
	Open func(seed uint64) (Stream, error)
	// Nodes is the system size; required with Open, otherwise derived
	// from the preset or Params.
	Nodes int
	// Warm misses train caches and predictors without being measured;
	// 0 inherits the Runner's default.
	Warm int
	// Measure misses are accounted; 0 inherits the Runner's default.
	Measure int
}

// label names the workload in results.
func (w WorkloadSpec) label() string {
	if w.Name != "" {
		return w.Name
	}
	if w.Params != nil && w.Params.Name != "" {
		return w.Params.Name
	}
	return "workload"
}

// paramsAt returns the spec's fully-specified workload parameters at
// one cell seed — the identity its shared dataset is generated and
// addressed by: the preset's for a Name, Params with the seed applied
// otherwise. Imported traces are fixed data whose identity is the
// input's content hash, so every seed replays the same dataset and the
// seed must not perturb it. Custom Open sources have no parameters.
func (w WorkloadSpec) paramsAt(seed uint64) (workload.Params, error) {
	switch {
	case w.Open != nil:
		return workload.Params{}, fmt.Errorf("destset: workload %q uses a custom Open stream source and has no shared dataset", w.label())
	case w.Params != nil:
		p := *w.Params
		if !p.Import.Enabled() {
			p.Seed = seed
		}
		return p, nil
	case w.Name != "":
		return workload.Preset(w.Name, seed)
	}
	return workload.Params{}, fmt.Errorf("destset: workload spec needs a Name, Params or Open source")
}

// resolve turns the spec into a sweep workload, applying the runner's
// default scale. Preset names are validated here, before the sweep
// starts.
func (w WorkloadSpec) resolve(defaultWarm, defaultMeasure int) (sweep.Workload, error) {
	// 0 inherits the runner default; negative means "explicitly none".
	warm, measure := scaleOf(w.Warm, w.Measure, defaultWarm, defaultMeasure)
	sw := sweep.Workload{Name: w.label(), Warm: warm, Measure: measure, Nodes: w.Nodes}
	if w.Open != nil {
		if sw.Nodes <= 0 {
			return sweep.Workload{}, fmt.Errorf("destset: workload %q uses a custom stream source and must set Nodes", sw.Name)
		}
		sw.Open = w.Open
		return sw, nil
	}
	base, err := w.paramsAt(0)
	if err != nil {
		return sweep.Workload{}, err
	}
	if sw.Nodes == 0 {
		sw.Nodes = base.Nodes
	}
	sw.Open, sw.Prepare = sharedDatasetSource(w.paramsAt, warm, measure)
	return sw, nil
}

// sharedDatasetSource builds the generate-once/replay-many stream source
// for a resolvable workload: each (params, seed, scale) trace is
// generated once in the process-wide dataset store and every sweep cell
// replays it through a fresh zero-copy cursor. Prepare materializes the
// dataset ahead of the cells so generation fans out across the worker
// pool.
func sharedDatasetSource(params func(seed uint64) (workload.Params, error), warm, measure int) (open func(uint64) (Stream, error), prepare func(uint64) error) {
	open = func(seed uint64) (Stream, error) {
		p, err := params(seed)
		if err != nil {
			return nil, err
		}
		return dataset.OpenShared(p, warm, measure)
	}
	prepare = func(seed uint64) error {
		p, err := params(seed)
		if err != nil {
			return err
		}
		_, err = dataset.GetShared(p, warm, measure)
		return err
	}
	return open, prepare
}

// NewWorkloadGenerator resolves a WorkloadSpec into a generator seeded
// for one run — the same resolution the Runner performs per sweep cell.
// It fails for specs with a custom Open source (call Open directly).
func NewWorkloadGenerator(spec WorkloadSpec, seed uint64) (*Generator, error) {
	if spec.Open != nil {
		return nil, fmt.Errorf("destset: workload %q has a custom stream source; call spec.Open", spec.label())
	}
	p, err := spec.paramsAt(seed)
	if err != nil {
		return nil, err
	}
	return workload.New(p)
}
