// Package destset is a Go reproduction of "Using Destination-Set
// Prediction to Improve the Latency/Bandwidth Tradeoff in Shared-Memory
// Multiprocessors" (Martin, Harper, Sorin, Hill, Wood — ISCA 2003).
//
// The destination set is the collection of processors that receive a
// coherence request. Snooping protocols broadcast every request (lowest
// latency, most bandwidth); directory protocols send requests to a home
// node that forwards them (least bandwidth, indirection latency).
// Destination-set predictors let a multicast snooping protocol send each
// request directly to a predicted set of nodes, trading latency against
// bandwidth per-request.
//
// This package is the public facade over the implementation:
//
//   - Predictors: the paper's Owner, BroadcastIfShared, Group,
//     OwnerGroup and StickySpatial(1) policies with block, macroblock
//     and PC indexing (internal/predictor).
//   - Workloads: synthetic generators calibrated to the paper's six
//     commercial/scientific benchmarks (internal/workload).
//   - Protocols: broadcast snooping, GS320-style directory and multicast
//     snooping accounting engines (internal/protocol).
//   - Timing: an execution-driven discrete-event model of the paper's
//     16-node target system (internal/sim).
//
// The experiment API is built from three composable pieces:
//
//   - Specs: EngineSpec and WorkloadSpec are inert value descriptions of
//     a protocol engine and a workload; registries (RegisterPolicy,
//     RegisterWorkload, RegisterEngine) let callers add custom policies,
//     presets and protocol engines that sweep exactly like the paper's.
//   - Runner: fans a []EngineSpec × []WorkloadSpec × seeds cross-product
//     over a worker pool, streams per-interval Observations to
//     observers, honors context cancellation, and returns deterministic
//     results at any parallelism.
//   - EvaluatePolicy / Evaluate: one-call wrappers over the Runner for a
//     single tradeoff point.
//
// The execution-driven timing model (§5) is spec-driven through the same
// architecture: SimSpec describes a timing configuration (protocol,
// policy, CPU model, Table-4 knob overrides) and TimingRunner fans
// []SimSpec × []WorkloadSpec × seeds over the worker pool with the same
// determinism, cancellation and JSONL-observer affordances
// (WithTimingObserver, EvaluateTiming). Timing cells replay the shared
// dataset store zero-copy through random-access SimSources.
//
// The quickest start is EvaluatePolicy, which generates a workload,
// warms a predictor bank and reports the latency/bandwidth tradeoff
// point; see README.md for a Runner walkthrough, examples/ for full
// programs and cmd/ for the per-figure experiment tools.
package destset

import (
	"context"

	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/sim"
	"destset/internal/trace"
	"destset/internal/workload"
)

// Core identifiers.
type (
	// NodeID identifies a processor/memory node.
	NodeID = nodeset.NodeID
	// Set is a destination set (a bit set of nodes).
	Set = nodeset.Set
	// Addr is a 64-byte-block address.
	Addr = trace.Addr
	// PC identifies a static load/store instruction.
	PC = trace.PC
	// Record is one coherence request (an L2 miss).
	Record = trace.Record
	// MissInfo is the coherence state a miss observed (owner, sharers,
	// home), from which needed destination sets derive.
	MissInfo = coherence.MissInfo
)

// Request kinds.
const (
	// GetShared requests a read-only copy.
	GetShared = trace.GetShared
	// GetExclusive requests a writable copy.
	GetExclusive = trace.GetExclusive
)

// Predictor API.
type (
	// Predictor is one node's destination-set predictor.
	Predictor = predictor.Predictor
	// PredictorConfig selects policy, capacity and indexing.
	PredictorConfig = predictor.Config
	// Policy enumerates prediction policies.
	Policy = predictor.Policy
	// Indexing selects block, macroblock or PC indexing.
	Indexing = predictor.Indexing
	// Query is a prediction request.
	Query = predictor.Query
	// Response is the data-response training event.
	Response = predictor.Response
	// External is the observed-external-request training event.
	External = predictor.External
	// Retry is the insufficient-prediction training event.
	Retry = predictor.Retry
)

// Prediction policies (the paper's Table 3 plus reference policies).
const (
	Owner             = predictor.Owner
	BroadcastIfShared = predictor.BroadcastIfShared
	Group             = predictor.Group
	OwnerGroup        = predictor.OwnerGroup
	StickySpatial     = predictor.StickySpatial
	Minimal           = predictor.Minimal
	Broadcast         = predictor.Broadcast
	Oracle            = predictor.Oracle
)

// Indexing modes.
const (
	ByBlock = predictor.ByBlock
	ByPC    = predictor.ByPC
)

// NewPredictor builds a single predictor.
func NewPredictor(cfg PredictorConfig) Predictor { return predictor.New(cfg) }

// NewPredictorBank builds one predictor per node.
func NewPredictorBank(cfg PredictorConfig) []Predictor { return predictor.NewBank(cfg) }

// DefaultPredictorConfig is the paper's standout configuration: 8192
// entries, 4-way, 1024-byte macroblock indexing.
func DefaultPredictorConfig(p Policy, nodes int) PredictorConfig {
	return predictor.DefaultConfig(p, nodes)
}

// Workload API.
type (
	// WorkloadParams fully describes a synthetic workload.
	WorkloadParams = workload.Params
	// Generator produces a workload's coherence-request stream.
	Generator = workload.Generator
)

// Workloads returns the six paper benchmark names.
func Workloads() []string { return workload.Names() }

// NewWorkload returns a named preset's parameters.
func NewWorkload(name string, seed uint64) (WorkloadParams, error) {
	return workload.Preset(name, seed)
}

// NewGenerator builds a workload generator.
func NewGenerator(p WorkloadParams) (*Generator, error) { return workload.New(p) }

// Protocol accounting API.
type (
	// Engine processes misses under one protocol.
	Engine = protocol.Engine
	// Result is the accounting outcome of one miss, which
	// Engine.Process returns.
	Result = protocol.Result
	// Totals aggregates per-miss accounting.
	Totals = protocol.Totals
)

// NewSnoopingEngine returns a broadcast snooping accounting engine.
func NewSnoopingEngine(nodes int) Engine { return protocol.NewSnooping(nodes) }

// NewDirectoryEngine returns a directory protocol accounting engine.
func NewDirectoryEngine() Engine { return protocol.NewDirectory() }

// NewMulticastEngine returns a multicast snooping engine over a
// predictor bank (one predictor per node).
func NewMulticastEngine(bank []Predictor) Engine { return protocol.NewMulticast(bank) }

// NewPredictiveDirectoryEngine returns the Acacio-style hybrid the paper
// cites (§1, §6): owner prediction layered on a directory protocol,
// converting predicted 3-hop misses into 2-hop misses.
func NewPredictiveDirectoryEngine(bank []Predictor) Engine {
	return protocol.NewPredictiveDirectory(bank)
}

// Timing API.
type (
	// SimConfig describes an execution-driven timing run.
	SimConfig = sim.Config
	// SimResult reports runtime and traffic.
	SimResult = sim.Result
	// CPUModel selects the timing simulator's processor model (§5.2).
	CPUModel = sim.CPUModel
	// SimSource is a random-access record view the timing simulator
	// replays: Nodes, Len and Record(i). Dataset regions implement it,
	// and a caller that holds records of its own implements the three
	// methods over them.
	SimSource = sim.Source
)

// Timing protocols.
const (
	SimSnooping  = sim.Snooping
	SimDirectory = sim.Directory
	SimMulticast = sim.Multicast
)

// CPU models.
const (
	SimpleCPU   = sim.SimpleCPU
	DetailedCPU = sim.DetailedCPU
)

// DefaultSimConfig is the paper's Table 4 target system.
func DefaultSimConfig(p sim.Protocol) SimConfig { return sim.DefaultConfig(p) }

// SimulateTiming simulates the timed source after warming caches and
// predictors with warm (which may be nil). The sources are read-only and
// may be shared across concurrent runs; a record whose requester is
// outside the system or whose kind is neither GETS nor GETX is refused
// with an error. It aborts promptly on cancellation. The TimingRunner
// replays datasets through the same simulator; reach for SimulateTiming
// when a single hand-built SimConfig or records of the caller's own are
// easier than a SimSpec and a WorkloadSpec.
func SimulateTiming(ctx context.Context, cfg SimConfig, warm, timed SimSource) (SimResult, error) {
	return sim.Simulate(ctx, cfg, warm, timed)
}

// TradeoffResult is the outcome of EvaluatePolicy: one point on the
// paper's latency/bandwidth plane.
type TradeoffResult struct {
	// Config names the evaluated engine.
	Config string
	// RequestMsgsPerMiss is request/forward/retry messages per miss.
	RequestMsgsPerMiss float64
	// IndirectionPercent is the percent of misses needing indirection.
	IndirectionPercent float64
	// BytesPerMiss is total traffic per miss in bytes.
	BytesPerMiss float64
}

// EvaluatePolicy generates the named workload, warms the predictor bank
// on warmMisses, measures measureMisses and returns the tradeoff point.
// It is the one-call version of the paper's §4 methodology, kept as a
// compatibility wrapper over the Runner: Broadcast maps to the snooping
// engine, Minimal to the directory engine, and every other policy to
// multicast snooping at the paper's standout predictor configuration.
// For other engines (the predictive-directory hybrid, custom registered
// protocols) or multi-cell sweeps, use Evaluate or Runner directly.
func EvaluatePolicy(workloadName string, policy Policy, seed uint64, warmMisses, measureMisses int) (TradeoffResult, error) {
	return Evaluate(context.Background(),
		SpecForPolicy(policy),
		WorkloadSpec{Name: workloadName},
		WithSeeds(seed),
		WithWarmup(warmMisses),
		WithMeasure(measureMisses),
	)
}
