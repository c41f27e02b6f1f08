package destset

import (
	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/workload"
)

// The three registries make the experiment API composable: custom
// prediction policies, workload presets and protocol engines plug into
// the same Runner sweeps as the paper's built-ins, without touching any
// internal package.

// PolicyFactory builds one node's predictor from a configuration.
// Custom factories may ignore the configuration's Policy field and use
// only the capacity/indexing fields.
type PolicyFactory = predictor.Factory

// RegisterPolicy adds a named prediction policy. Names are normalized
// case-insensitively (spaces, hyphens and underscores are ignored); a
// registered policy becomes usable as EngineSpec.PolicyName. It fails
// on an empty name, a nil factory, or a name collision.
func RegisterPolicy(name string, factory PolicyFactory) error {
	return predictor.Register(name, factory)
}

// Policies returns the registered prediction policy names: the paper's
// eight built-ins plus anything added through RegisterPolicy.
func Policies() []string { return predictor.RegisteredPolicies() }

// WorkloadPreset builds a workload's parameters for one seed.
type WorkloadPreset = workload.PresetFunc

// RegisterWorkload adds a named workload preset, making it sweepable by
// name through WorkloadSpec and visible in Workloads(). It fails on an
// empty name, a nil preset, or a name collision.
func RegisterWorkload(name string, preset WorkloadPreset) error {
	return workload.Register(name, preset)
}

// EngineFactory builds a protocol engine from the system size and an
// optional predictor-bank factory (nil when the sweep configured no
// prediction policy). Each call must return a fresh engine; a sweep
// cell calls it once.
type EngineFactory = protocol.EngineFactory

// RegisterEngine adds a named protocol engine, making it usable as
// EngineSpec.Protocol alongside the built-in snooping, directory,
// multicast and predictive-directory engines. It fails on an empty
// name, a nil factory, or a name collision.
func RegisterEngine(name string, factory EngineFactory) error {
	return protocol.RegisterEngine(name, factory)
}

// Engines returns the registered protocol engine names.
func Engines() []string { return protocol.EngineNames() }
