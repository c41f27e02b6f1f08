package destset

import (
	"fmt"
	"strings"

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
	// selected policy. Its Nodes field is 0 to inherit the workload's
	// node count; any other value must equal that count.
	Predictor *PredictorConfig
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
	if s.hasPolicy() {
		return checkBank("engine", s.DisplayLabel(), s.PolicyName, s.Policy, s.Predictor)
	}
	return nil
}

// checkBank reports, naming the spec, a predictor bank that the spec's
// bank factory could not build: an explicit configuration New rejects,
// or a node count out of range. It runs before any sweep work, so such a
// spec fails validation instead of panicking in a sweep worker. Nodes
// left 0 come from the workload, whose own validation bounds them. A
// registered custom policy reads the configuration its own way, so for
// it only the node count is checked.
func checkBank(kind, label, policyName string, policy Policy, pc *PredictorConfig) error {
	cfg := predictor.DefaultConfig(policy, 0)
	if pc != nil {
		cfg = *pc
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 1
	}
	if policyName != "" {
		if p, builtin := predictor.BuiltinPolicy(policyName); builtin {
			cfg.Policy = p
		} else {
			cfg = PredictorConfig{Policy: Minimal, Nodes: cfg.Nodes}
		}
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("destset: %s spec %q: %w", kind, label, err)
	}
	return nil
}

// bankConfig is the predictor configuration a spec's bank is built from
// on a system of nodes: the explicit pc, whose Nodes 0 inherits the
// system's node count and any other value must equal it, or else the
// paper's standout configuration for policy.
func bankConfig(kind, label string, policy Policy, pc *PredictorConfig, nodes int) (PredictorConfig, error) {
	if pc == nil {
		return predictor.DefaultConfig(policy, nodes), nil
	}
	cfg := *pc
	switch {
	case cfg.Nodes == 0:
		cfg.Nodes = nodes
	case cfg.Nodes != nodes:
		return cfg, fmt.Errorf("destset: %s spec %q: predictor config has %d nodes, but the system has %d",
			kind, label, cfg.Nodes, nodes)
	}
	return cfg, nil
}

// bankFactory resolves the spec's predictor policy into a bank factory
// for a system of nodes, or nil when no policy is configured. An explicit
// Predictor config is used verbatim (aside from filling Nodes);
// otherwise the Policy / PolicyName selection gets the paper's standout
// configuration. builtin reports that the factory is predictor.NewBank,
// not a registered custom policy's.
func (s EngineSpec) bankFactory(nodes int) (newBank func() []predictor.Predictor, builtin bool, err error) {
	if !s.hasPolicy() {
		return nil, false, nil
	}
	cfg, err := bankConfig("engine", s.DisplayLabel(), s.Policy, s.Predictor, nodes)
	if err != nil {
		return nil, false, err
	}
	if s.PolicyName != "" {
		custom, err := namedBank(s.PolicyName, &cfg)
		if custom != nil || err != nil {
			return custom, false, err
		}
	}
	return func() []predictor.Predictor { return predictor.NewBank(cfg) }, true, nil
}

// namedBank resolves a policy name for a bank of configuration cfg. A
// built-in policy's name sets cfg's policy and returns no factory, so
// that the caller builds the bank with predictor.NewBank, as for a
// policy given by value: its tables then share one array and it takes
// the multicast engine's bank step. A registered custom policy's name
// returns a factory that builds each node's predictor through the
// registry.
func namedBank(name string, cfg *PredictorConfig) (func() []predictor.Predictor, error) {
	if p, builtin := predictor.BuiltinPolicy(name); builtin {
		cfg.Policy = p
		return nil, nil
	}
	factory, ok := predictor.LookupFactory(name)
	if !ok {
		return nil, fmt.Errorf("destset: unknown policy %q (have %v)", name, predictor.RegisteredPolicies())
	}
	bankCfg := *cfg
	return func() []predictor.Predictor {
		bank := make([]predictor.Predictor, bankCfg.Nodes)
		for i := range bank {
			bank[i] = factory(bankCfg)
		}
		return bank
	}, nil
}

// NewEngine builds one fresh engine from the spec for a system of the
// given positive node count, with its own untrained predictor bank:
// engines built from one spec share no training. A sweep cell builds its
// engine this way, for its dataset's node count.
func (s EngineSpec) NewEngine(nodes int) (Engine, error) {
	eng, _, err := s.newEngine(nodes)
	return eng, err
}

// newEngine is NewEngine. It also returns the engine's bank when only
// the engine holds it, or nil: the bank of a built-in multicast or
// predictive-directory engine over predictor.NewBank. A bank that a
// registered engine factory or a custom policy's factory received may
// be kept there, so it is never returned.
func (s EngineSpec) newEngine(nodes int) (Engine, []predictor.Predictor, error) {
	if nodes <= 0 {
		return nil, nil, fmt.Errorf("destset: engine spec %q needs a node count", s.DisplayLabel())
	}
	name := s.protocolName()
	if name == "" {
		return nil, nil, fmt.Errorf("destset: engine spec needs a protocol or a policy")
	}
	newBank, builtin, err := s.bankFactory(nodes)
	if err != nil {
		return nil, nil, err
	}
	if n := strings.ToLower(strings.TrimSpace(name)); builtin && (n == protocol.MulticastName || n == protocol.PredictiveDirectoryName) {
		bank := newBank()
		eng, err := protocol.NewByName(name, nodes, func() []predictor.Predictor { return bank })
		return eng, bank, err
	}
	eng, err := protocol.NewByName(name, nodes, newBank)
	return eng, nil, err
}

// sweepEngine adapts the spec for the sweep runner. A cell's engine is
// NewEngine's, and once the cell is done with it the cell's release
// recycles the engine's bank when only the engine held it (newEngine):
// the next cell of the same predictor configuration takes that bank
// over, reset, instead of building and zeroing a new one.
func (s EngineSpec) sweepEngine() sweep.Engine {
	return sweep.Engine{
		Label: s.DisplayLabel(),
		New: func(nodes int) (protocol.Engine, func(), error) {
			eng, bank, err := s.newEngine(nodes)
			if err != nil || bank == nil {
				return eng, nil, err
			}
			return eng, func() { predictor.Recycle(bank) }, nil
		},
	}
}

// WorkloadSpec is a value description of one workload and its
// measurement scale: a registered preset (Name) or explicit parameters
// (Params), which take priority. Either way a sweep replays the one
// shared dataset of each (workload, seed), whose parameters fix the
// system's node count. A recorded trace comes in as an imported dataset
// (tracegen -import) and is swept through its Params.
type WorkloadSpec struct {
	// Name is a registered workload preset name; it also labels the
	// workload in results when Params is used.
	Name string `json:"Name,omitempty"`
	// Params overrides the preset lookup with explicit parameters. The
	// Seed field is replaced by the sweep cell's seed.
	Params *WorkloadParams `json:"Params,omitempty"`
	// Warm misses train caches and predictors without being measured;
	// 0 inherits the Runner's default.
	Warm int `json:"Warm,omitempty"`
	// Measure misses are accounted; 0 inherits the Runner's default.
	Measure int `json:"Measure,omitempty"`
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
// seed must not perturb it.
func (w WorkloadSpec) paramsAt(seed uint64) (workload.Params, error) {
	switch {
	case w.Params != nil:
		p := *w.Params
		if !p.Import.Enabled() {
			p.Seed = seed
		}
		return p, nil
	case w.Name != "":
		return workload.Preset(w.Name, seed)
	}
	return workload.Params{}, fmt.Errorf("destset: workload spec needs a Name or Params")
}

// resolve turns the spec into a sweep workload, applying the runner's
// default scale. Preset names are validated here, before the sweep
// starts. Each (params, seed, scale) dataset is generated once in the
// process-wide dataset store, and every sweep cell replays it through a
// fresh zero-copy cursor.
func (w WorkloadSpec) resolve(defaultWarm, defaultMeasure int) (sweep.Workload, error) {
	if _, err := w.paramsAt(0); err != nil {
		return sweep.Workload{}, err
	}
	// 0 inherits the runner default; negative means "explicitly none".
	warm, measure := scaleOf(w.Warm, w.Measure, defaultWarm, defaultMeasure)
	ds := func(seed uint64) (*dataset.Dataset, error) {
		p, err := w.paramsAt(seed)
		if err != nil {
			return nil, err
		}
		return dataset.GetShared(p, warm, measure)
	}
	return sweep.Workload{Name: w.label(), Warm: warm, Measure: measure, Dataset: ds}, nil
}

// NewWorkloadGenerator resolves a WorkloadSpec into a generator seeded
// for one run — the same resolution the Runner performs per sweep cell.
func NewWorkloadGenerator(spec WorkloadSpec, seed uint64) (*Generator, error) {
	p, err := spec.paramsAt(seed)
	if err != nil {
		return nil, err
	}
	return workload.New(p)
}
