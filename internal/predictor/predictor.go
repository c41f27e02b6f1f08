// Package predictor implements destination-set predictors: the paper's
// primary contribution (§3).
//
// A destination-set predictor sits next to each L2 cache controller. On a
// miss it guesses which processors must observe the coherence request; the
// multicast snooping protocol then sends the request directly to that set.
// Predicting too many nodes wastes bandwidth, predicting too few costs a
// retry (latency). The policies here target different points on that
// latency/bandwidth curve, exactly as specified in the paper's Table 3:
//
//   - Owner: remember the last node that invalidated or supplied the block
//     (bandwidth-biased).
//   - BroadcastIfShared: a 2-bit counter chooses between broadcast and the
//     minimal set (latency-biased).
//   - Group: per-node 2-bit counters with a rollover decay counter whose
//     limit defaults to 32, the paper's 5-bit counter (balanced).
//   - OwnerGroup: Group for writes, Owner for reads (stable sharing,
//     less bandwidth than Group).
//   - StickySpatial(1): the original multicast snooping predictor of Bilir
//     et al., reimplemented as the prior-work baseline.
//
// Predictors are tagged and set-associative, indexed by data block address,
// macroblock address, or program counter (§3.4), and allocate entries only
// when the minimal destination set proved insufficient (§3.1).
//
// A finite table (Table) keeps each set in recency order, so LRU
// replacement needs no stamps, valid flags or victim scan: a line is a
// tag and an entry, plus one fill count per set. NewBank lays the
// tables of all nodes out in one set-major array, so the training
// lookups one request makes in every observer's table touch adjacent
// memory. Config.Validate reports the configurations New cannot build.
//
// Every node that receives a request trains on it, so one miss updates
// up to all the tables of a bank at one key. A bank that NewBank builds
// with a finite Owner, BroadcastIfShared, Group or OwnerGroup table has
// a bank step (StepOf) that does one miss's whole prediction and
// training in one call: it computes the key and set once and walks the
// requester's and every observer's adjacent set. Each policy's rules are
// written once, as methods of its entry type that both the step and the
// per-node Predictor methods call, so the two paths train the same
// tables the same way, counters included.
//
// Such a bank is 2–5 MB at the paper's standout configuration, and a
// sweep builds one per cell. A caller that built a bank for one run and
// showed it to nobody else hands it back with Recycle when the run is
// over, and the next NewBank of the same configuration resets it (fill
// counts and counters only) instead of allocating and zeroing a new
// one. The free list holds idle banks only through weak pointers, so it
// never pins memory: a bank the next collection finds idle is freed.
package predictor

import (
	"fmt"

	"destset/internal/nodeset"
	"destset/internal/trace"
)

// Query is the context available to a predictor when its node misses.
type Query struct {
	Addr      trace.Addr
	PC        trace.PC
	Requester nodeset.NodeID
	Home      nodeset.NodeID
	Kind      trace.Kind
}

// MinimalSet returns the floor of every prediction: requester plus home.
func (q Query) MinimalSet() nodeset.Set { return nodeset.Pair(q.Requester, q.Home) }

// Response is the training event delivered when the data response for a
// node's own miss arrives (§3.2): data-response messages carry the
// sender's identity.
type Response struct {
	Addr       trace.Addr
	PC         trace.PC
	Responder  nodeset.NodeID
	FromMemory bool
}

// External is the training event delivered when another node's coherence
// request arrives at this node.
type External struct {
	Addr      trace.Addr
	PC        trace.PC // requester's miss PC (carried in the request, §3.4)
	Requester nodeset.NodeID
	Kind      trace.Kind
}

// Retry is delivered to the requester when its prediction was insufficient
// and the directory reissued the request to the needed set. Only
// StickySpatial trains on it (that is how the original predictor learned);
// the Table 3 policies ignore it.
type Retry struct {
	Addr   trace.Addr
	PC     trace.PC
	Needed nodeset.Set
}

// Predictor is one node's destination-set predictor.
type Predictor interface {
	// Predict returns the destination set for a request. It always
	// includes the minimal set {requester, home}.
	Predict(q Query) nodeset.Set
	// TrainResponse observes the data response for this node's own miss.
	TrainResponse(ev Response)
	// TrainRequest observes an external coherence request delivered to
	// this node.
	TrainRequest(ev External)
	// TrainRetry observes that this node's prediction was insufficient.
	TrainRetry(ev Retry)
	// Name describes the policy and configuration.
	Name() string
}

// Policy selects a prediction policy.
type Policy uint8

const (
	// Owner predicts the last known owner (Table 3 column 1).
	Owner Policy = iota
	// BroadcastIfShared predicts broadcast for shared-looking blocks
	// (Table 3 column 2).
	BroadcastIfShared
	// Group predicts the set of recently active processors (Table 3
	// column 3).
	Group
	// OwnerGroup uses Group for GetExclusive and Owner for GetShared
	// (§3.3 hybrid).
	OwnerGroup
	// StickySpatial is the Bilir et al. baseline with one neighbor
	// aggregated on each side (§3.5).
	StickySpatial
	// Minimal always predicts the minimal set; with multicast snooping
	// this behaves like a directory protocol's first hop.
	Minimal
	// Broadcast always predicts all nodes; multicast snooping degenerates
	// to broadcast snooping.
	Broadcast
	// Oracle predicts exactly the needed destination set of each miss. It
	// requires the harness to supply the needed set via SetOracle and is
	// used for limit studies.
	Oracle
)

// String returns the policy name used in reports and figures.
func (p Policy) String() string {
	switch p {
	case Owner:
		return "Owner"
	case BroadcastIfShared:
		return "BroadcastIfShared"
	case Group:
		return "Group"
	case OwnerGroup:
		return "OwnerGroup"
	case StickySpatial:
		return "StickySpatial(1)"
	case Minimal:
		return "Minimal"
	case Broadcast:
		return "Broadcast"
	case Oracle:
		return "Oracle"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Config describes a predictor instance.
type Config struct {
	Policy Policy
	// Nodes is the system size (16 in the paper).
	Nodes int
	// Entries is the table capacity; 0 means unbounded.
	Entries int
	// Ways is the set associativity of finite tables (default 4).
	// StickySpatial is always direct-mapped, as in the original design.
	Ways int
	// GroupRollover overrides the Group policy's rollover counter limit
	// (default 32, the paper's 5-bit counter; at most 2^32-1). Smaller
	// values train down faster; the ablation benchmarks sweep it.
	GroupRollover int
	// Indexing selects block, macroblock or PC indexing.
	Indexing Indexing
}

// DefaultConfig returns the paper's standout configuration: 8192 entries,
// 4-way, 1024-byte macroblock indexing (§4.3).
func DefaultConfig(policy Policy, nodes int) Config {
	return Config{
		Policy:   policy,
		Nodes:    nodes,
		Entries:  8192,
		Ways:     4,
		Indexing: Indexing{Mode: ByBlock, MacroblockBytes: trace.MacroblockBytes},
	}
}

// Name renders the configuration, e.g. "Group[1024B,8192e]".
func (c Config) Name() string {
	size := "unbounded"
	if c.Entries > 0 {
		size = fmt.Sprintf("%de", c.Entries)
	}
	return fmt.Sprintf("%s[%s,%s]", c.Policy, c.Indexing, size)
}

// EntryBytes returns the approximate per-entry storage of the policy,
// including tag, following the paper's Table 3 estimates (Owner and
// BroadcastIfShared ≈ 4 bytes, Group ≈ 8 bytes).
func (c Config) EntryBytes() int {
	switch c.Policy {
	case Owner, BroadcastIfShared:
		return 4
	case Group, StickySpatial:
		return 8
	case OwnerGroup:
		return 12
	default:
		return 0
	}
}

// StorageBytes returns the approximate total predictor storage; the
// paper's standout predictors are 32–64 kB, under 2% of the 4 MB L2.
func (c Config) StorageBytes() int { return c.EntryBytes() * c.Entries }

// Validate reports why New cannot build c, or nil when it can: a node
// count outside 1..nodeset.MaxNodes, an unknown policy, a table geometry
// NewTable rejects, a StickySpatial size that is not a power of two, a
// GroupRollover limit the rollover counter cannot reach, an index mode
// other than ByBlock and ByPC, or a macroblock size that is negative or
// not a multiple of the 64-byte block (keys are whole blocks, so such a
// size would be named one way and keyed another). The spec layers call
// it before a sweep starts, so that such a configuration fails
// validation instead of panicking inside a sweep worker or running
// under a name it does not honour.
func (c Config) Validate() error {
	if c.Nodes <= 0 || c.Nodes > nodeset.MaxNodes {
		return fmt.Errorf("predictor: bad node count %d (want 1..%d)", c.Nodes, nodeset.MaxNodes)
	}
	if c.GroupRollover > 0 && uint64(c.GroupRollover) > maxRolloverLimit {
		return fmt.Errorf("predictor: group rollover limit %d exceeds %d", c.GroupRollover, uint64(maxRolloverLimit))
	}
	if m := c.Indexing.Mode; m != ByBlock && m != ByPC {
		return fmt.Errorf("predictor: unknown index mode %d", m)
	}
	if mb := c.Indexing.MacroblockBytes; mb < 0 || mb%trace.BlockBytes != 0 {
		return fmt.Errorf("predictor: macroblock size %d bytes is not a multiple of the %d-byte block", mb, trace.BlockBytes)
	}
	switch c.Policy {
	case Owner, BroadcastIfShared, Group, OwnerGroup:
		_, _, err := geometry(c.Entries, c.Ways)
		return err
	case StickySpatial:
		if c.Entries < 0 || c.Entries&(c.Entries-1) != 0 {
			return fmt.Errorf("predictor: StickySpatial entries %d is not a power of two", c.Entries)
		}
	case Minimal, Broadcast, Oracle:
	default:
		return fmt.Errorf("predictor: unknown policy %v", c.Policy)
	}
	return nil
}

// New builds a predictor for one node from the configuration: a bank of
// one, with a standalone table.
func New(cfg Config) Predictor { return newBank(cfg, 1)[0] }

// NewBank builds one predictor per node, all with the same configuration.
// The tables of a table-backed policy share one set-major array (see
// Table). A finite table bank may be one that Recycle handed back and no
// collection has freed since, reset to empty tables with zeroed
// counters: it predicts, trains and counts exactly as a new one.
func NewBank(cfg Config) []Predictor { return newBank(cfg, cfg.Nodes) }

// newBank builds n predictors from cfg. It panics on a configuration
// Validate rejects.
func newBank(cfg Config, n int) []Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 4
	}
	if cfg.Indexing.MacroblockBytes == 0 {
		cfg.Indexing.MacroblockBytes = trace.BlockBytes
	}
	if cfg.GroupRollover <= 0 {
		cfg.GroupRollover = defaultRolloverLimit
	}
	switch cfg.Policy {
	case Owner:
		return newMembers(cfg, n, func(m member[ownerEntry]) Predictor { return &ownerPredictor{m} })
	case BroadcastIfShared:
		return newMembers(cfg, n, func(m member[bisEntry]) Predictor { return &bisPredictor{m} })
	case Group:
		return newMembers(cfg, n, func(m member[groupEntry]) Predictor { return &groupPredictor{m} })
	case OwnerGroup:
		return newMembers(cfg, n, func(m member[ownerGroupEntry]) Predictor { return &ownerGroupPredictor{m} })
	}
	bank := make([]Predictor, n)
	switch cfg.Policy {
	case StickySpatial:
		for i := range bank {
			bank[i] = newStickySpatial(cfg)
		}
	case Minimal:
		for i := range bank {
			bank[i] = minimalPredictor{}
		}
	case Broadcast:
		for i := range bank {
			bank[i] = broadcastPredictor{nodes: cfg.Nodes}
		}
	case Oracle:
		for i := range bank {
			bank[i] = &oraclePredictor{}
		}
	}
	return bank
}
