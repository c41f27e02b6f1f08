// Package workload generates synthetic coherence-request traces whose
// sharing behaviour reproduces the paper's commercial-workload
// characterization (§2).
//
// The paper traced six workloads (Apache, Barnes-Hut, Ocean, OLTP,
// Slashcode, SPECjbb) with Simics full-system simulation. Neither the
// workloads nor the simulator are available, so this package substitutes
// pattern-mixture models: each workload is a weighted mixture of sharing
// patterns acting on macroblock-aligned groups of blocks ("units"), driven
// through the coherence oracle so that hits are filtered out and real
// eviction behaviour emerges. The patterns are the classic ones the
// coherence-prediction literature identifies (Gupta/Weber; §6):
//
//   - Migratory: blocks read-modify-written by one processor at a time,
//     rotating through a sharing group (database rows, locks+data).
//   - Producer-consumer: one node writes a buffer, group members read it
//     (Ocean's column-block boundaries, work queues).
//   - Widely-shared: read by many nodes, occasionally written (metadata,
//     lock tables).
//   - Streaming: cold/capacity misses to per-node private regions
//     (buffers, scans); these are the memory-sourced misses.
//
// Unit hotness follows a Zipf law (the paper's Figure 4 locality), sizes
// and mixture weights are calibrated per workload (see presets.go), and
// each miss carries the PC of a synthetic static instruction and the
// requester's instruction gap, which the timing simulator consumes.
package workload

import (
	"fmt"
	"slices"

	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/trace"
	"destset/internal/xrand"
)

// Pattern identifies a sharing pattern.
type Pattern uint8

const (
	// Migratory blocks are read-modify-written by one node at a time.
	Migratory Pattern = iota
	// ProducerConsumer blocks are written by a producer then read by the
	// rest of the group.
	ProducerConsumer
	// WidelyShared blocks are read by the whole group with rare writes.
	WidelyShared
	// Streaming accesses walk per-node private regions (memory misses).
	Streaming
	numPatterns
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Migratory:
		return "migratory"
	case ProducerConsumer:
		return "producer-consumer"
	case WidelyShared:
		return "widely-shared"
	case Streaming:
		return "streaming"
	default:
		return fmt.Sprintf("Pattern(%d)", uint8(p))
	}
}

// Mix weights the per-step pattern choice.
type Mix struct {
	Migratory        float64
	ProducerConsumer float64
	WidelyShared     float64
	Streaming        float64
}

func (m Mix) weights() []float64 {
	return []float64{m.Migratory, m.ProducerConsumer, m.WidelyShared, m.Streaming}
}

// Params fully describes a synthetic workload.
type Params struct {
	// Name labels the workload in reports ("apache", "oltp", ...).
	Name string
	// Nodes is the processor count (16 throughout the paper).
	Nodes int
	// Seed makes the workload reproducible.
	Seed uint64

	// Mix sets the per-step pattern weights.
	Mix Mix

	// SharedUnits is the total number of sharing units, split across the
	// shared patterns in proportion to their mix weights.
	SharedUnits int
	// BlocksPerUnit is how many 64-byte blocks a unit touches; units are
	// laid out on macroblock-aligned spans so spatial predictors can
	// exploit them.
	BlocksPerUnit int
	// MacroblocksPerUnit is each unit's address span; BlocksPerUnit over
	// the span sets the macroblock density of Table 2.
	MacroblocksPerUnit int
	// UnitZipfTheta is the hotness skew across units (Figure 4 locality).
	UnitZipfTheta float64

	// GroupSizeWeights[k] weights sharing-group size k for migratory and
	// producer-consumer units (index 0 and 1 must be 0 for migratory/PC
	// to make sense; size is clamped to Nodes).
	GroupSizeWeights []float64
	// WideGroupSizeWeights weights group sizes of widely-shared units
	// (defaults to mostly-all-nodes when nil).
	WideGroupSizeWeights []float64
	// HotUnitsGetLargeGroups assigns the largest sampled groups to the
	// hottest units, concentrating misses on widely-touched blocks
	// (Figure 3b's commercial shape).
	HotUnitsGetLargeGroups bool

	// MigratoryReadFirst is the probability a migratory handoff performs
	// load-then-store (two misses) instead of store-only.
	MigratoryReadFirst float64
	// WidelyWriteFraction is the probability a widely-shared step writes.
	WidelyWriteFraction float64

	// StreamBlocksPerNode sizes each node's private streaming region; it
	// should exceed the L2 capacity so wrapped passes keep missing.
	StreamBlocksPerNode int
	// StreamWriteFraction is the probability a streaming access stores.
	StreamWriteFraction float64

	// MissesPer1000Instr calibrates instruction gaps (Table 2 column 6).
	MissesPer1000Instr float64
	// StaticPCs sizes the synthetic static-instruction pool (Table 2
	// column 4); PCs are drawn Zipf-skewed from it (Figure 4c).
	StaticPCs int
	// PCZipfTheta is the skew of instruction popularity.
	PCZipfTheta float64

	// L2 overrides the per-node cache geometry (zero value = paper's 4 MB
	// 4-way L2).
	L2 coherence.Config

	// AddrOffsetMacroblocks shifts the whole address layout (units, then
	// streaming regions) by a fixed macroblock count. TenantMix sets it
	// per tenant so instances occupy disjoint address ranges; zero keeps
	// the historical layout byte-identical.
	AddrOffsetMacroblocks int

	// Import, when enabled, marks these parameters as describing an
	// externally ingested trace (see compose.go and internal/ingest).
	// Imported workloads replay from their recorded dataset and never
	// regenerate; the sweep cell seed does not apply to them.
	Import Import

	// Phases, when non-empty, make this a phased workload cycling
	// through the sub-workloads with per-phase miss budgets.
	Phases []Phase

	// Tenants, when non-empty, make this a tenant mix: the sub-workload
	// instances interleave round-robin on one shared protocol.
	Tenants []Params

	// Regulate, when enabled, throttles per-CPU issue rate from a
	// trailing bandwidth estimate (orthogonal to the source kind; not
	// applicable to imports).
	Regulate Regulation
}

// Validate reports configuration errors early, dispatching on the
// workload's source kind.
func (p Params) Validate() error {
	if p.Nodes < 2 || p.Nodes > nodeset.MaxNodes {
		return fmt.Errorf("workload %q: bad node count %d", p.Name, p.Nodes)
	}
	if err := p.validateL2(); err != nil {
		return err
	}
	kinds := 0
	if p.Import.Enabled() {
		kinds++
	}
	if len(p.Phases) > 0 {
		kinds++
	}
	if len(p.Tenants) > 0 {
		kinds++
	}
	if kinds > 1 {
		return fmt.Errorf("workload %q: at most one of Import, Phases and Tenants may be set", p.Name)
	}
	if p.Regulate.Enabled() {
		if p.Import.Enabled() {
			return fmt.Errorf("workload %q: an imported trace cannot be bandwidth-regulated (its gaps are data)", p.Name)
		}
		if err := p.Regulate.validate(p.Name); err != nil {
			return err
		}
	}
	switch {
	case p.Import.Enabled():
		return p.validateImported()
	case len(p.Phases) > 0:
		return p.validatePhased()
	case len(p.Tenants) > 0:
		return p.validateTenantMix()
	}
	return p.validateGenerated()
}

// validateL2 checks an explicit L2 override, which builds the oracle of
// a generated or composed workload: it must have the workload's node
// count and a cache geometry cache.New accepts.
func (p Params) validateL2() error {
	if p.L2 == (coherence.Config{}) {
		return nil
	}
	l2 := p.L2.L2
	switch {
	case p.L2.Nodes != p.Nodes:
		return fmt.Errorf("workload %q: L2 override has %d nodes, workload has %d", p.Name, p.L2.Nodes, p.Nodes)
	case l2.SizeBytes <= 0 || l2.Ways <= 0 || l2.BlockBytes <= 0:
		return fmt.Errorf("workload %q: L2 geometry %+v needs a positive size, ways and block size", p.Name, l2)
	case l2.Sets()&(l2.Sets()-1) != 0:
		return fmt.Errorf("workload %q: L2 set count %d is not a power of two", p.Name, l2.Sets())
	}
	return nil
}

// validateImported checks the fields an ingested trace carries.
func (p Params) validateImported() error {
	im := p.Import
	switch {
	case im.Format != "csv" && im.Format != "text":
		return fmt.Errorf("workload %q: unknown import format %q (want csv or text)", p.Name, im.Format)
	case len(im.SHA256) != 64:
		return fmt.Errorf("workload %q: import digest %q is not a sha256 hex string", p.Name, im.SHA256)
	case im.Records <= 0:
		return fmt.Errorf("workload %q: import needs a positive record count", p.Name)
	case p.MissesPer1000Instr <= 0:
		return fmt.Errorf("workload %q: misses per 1000 instructions must be positive", p.Name)
	}
	return nil
}

// validateSub checks one component of a composed workload: a plain
// generated sub-workload on the parent's node count.
func (p Params) validateSub(role string, i int, sub Params) error {
	if sub.Import.Enabled() || len(sub.Phases) > 0 || len(sub.Tenants) > 0 || sub.Regulate.Enabled() {
		return fmt.Errorf("workload %q: %s %d must be a plain generated workload (no nesting)", p.Name, role, i)
	}
	if sub.Nodes != 0 && sub.Nodes != p.Nodes {
		return fmt.Errorf("workload %q: %s %d has %d nodes, parent has %d", p.Name, role, i, sub.Nodes, p.Nodes)
	}
	sub.Nodes = p.Nodes
	if err := sub.validateGenerated(); err != nil {
		return fmt.Errorf("workload %q: %s %d: %w", p.Name, role, i, err)
	}
	return nil
}

func (p Params) validatePhased() error {
	if p.MissesPer1000Instr <= 0 {
		return fmt.Errorf("workload %q: misses per 1000 instructions must be positive", p.Name)
	}
	for i, ph := range p.Phases {
		if ph.Misses <= 0 {
			return fmt.Errorf("workload %q: phase %d needs a positive miss budget", p.Name, i)
		}
		if err := p.validateSub("phase", i, ph.Params); err != nil {
			return err
		}
	}
	return nil
}

func (p Params) validateTenantMix() error {
	if p.MissesPer1000Instr <= 0 {
		return fmt.Errorf("workload %q: misses per 1000 instructions must be positive", p.Name)
	}
	if len(p.Tenants) < 2 {
		return fmt.Errorf("workload %q: a tenant mix needs at least 2 tenants", p.Name)
	}
	for i, t := range p.Tenants {
		if err := p.validateSub("tenant", i, t); err != nil {
			return err
		}
	}
	return nil
}

// validateGenerated checks the plain synthetic-generation fields.
func (p Params) validateGenerated() error {
	switch {
	case p.AddrOffsetMacroblocks < 0:
		return fmt.Errorf("workload %q: negative address offset", p.Name)
	case p.SharedUnits <= 0:
		return fmt.Errorf("workload %q: need at least one shared unit", p.Name)
	case p.BlocksPerUnit <= 0 || p.MacroblocksPerUnit <= 0:
		return fmt.Errorf("workload %q: bad unit geometry", p.Name)
	case p.BlocksPerUnit > p.MacroblocksPerUnit*trace.BlocksPerMacroblock:
		return fmt.Errorf("workload %q: %d blocks do not fit in %d macroblocks",
			p.Name, p.BlocksPerUnit, p.MacroblocksPerUnit)
	case p.MissesPer1000Instr <= 0:
		return fmt.Errorf("workload %q: misses per 1000 instructions must be positive", p.Name)
	case p.StaticPCs <= 0:
		return fmt.Errorf("workload %q: need a static instruction pool", p.Name)
	case p.StreamBlocksPerNode <= 0:
		return fmt.Errorf("workload %q: need a streaming region", p.Name)
	}
	return nil
}

// unit is one sharing unit: a macroblock-aligned run of blocks with a
// sharing group and a pattern-specific cursor.
type unit struct {
	pattern Pattern
	blocks  []trace.Addr
	group   []nodeset.NodeID
	pcRead  trace.PC
	pcWrite trace.PC

	holder   int // migratory: index into group of the current holder
	phase    int // producer-consumer: 0 = produce, >=1 = consumer phase i-1
	producer int // producer-consumer: index into group
}

// Generator produces the miss stream of one workload.
type Generator struct {
	p       Params
	sys     *coherence.System
	rng     *xrand.RNG
	mixCat  *xrand.Categorical
	units   [3][]*unit // per shared pattern
	unitZ   [3]*xrand.Zipf
	pcZ     *xrand.Zipf
	gapDist xrand.Geometric // a step's first miss: mean 1000/MissesPer1000Instr

	streamBase   []trace.Addr
	streamCursor []int

	// burst is the queue of accesses the current step still has to issue;
	// burstHead indexes the next one. Consuming by index (instead of
	// reslicing the front off) lets the queue reset to burst[:0] between
	// steps, so one backing array is reused for the generator's lifetime.
	burst     []access
	burstHead int

	instr     []uint64 // per-node instruction counters (for gap bookkeeping)
	generated uint64
}

type access struct {
	node  nodeset.NodeID
	addr  trace.Addr
	kind  coherence.AccessKind
	pc    trace.PC
	first bool // first access of a step: draws a full inter-miss gap
}

// New builds a generator and lays out the address space: shared units
// first (macroblock-aligned), then per-node streaming regions. It only
// accepts plain generated workloads; composed and regulated ones open
// through Open, imported ones only replay from their dataset.
func New(p Params) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if kind := p.Kind(); kind != KindGenerated {
		return nil, fmt.Errorf("workload %q: %s workloads have no plain generator; use workload.Open", p.Name, kind)
	}
	if p.Regulate.Enabled() {
		return nil, fmt.Errorf("workload %q: regulated workloads have no plain generator; use workload.Open", p.Name)
	}
	return newGenerator(p, nil)
}

// systemFor builds the workload's coherence oracle: the explicit L2
// geometry when set, otherwise the paper's default at the workload's
// node count.
func systemFor(p Params) *coherence.System {
	cfg := p.L2
	if cfg.Nodes == 0 {
		cfg = coherence.DefaultConfig()
		cfg.Nodes = p.Nodes
	}
	return coherence.NewSystem(cfg)
}

// newGenerator builds the generator on the given oracle (nil builds a
// private one) without re-validating — composition calls it with
// component parameters it has already checked and a shared oracle.
func newGenerator(p Params, sys *coherence.System) (*Generator, error) {
	if sys == nil {
		sys = systemFor(p)
	}
	g := &Generator{
		p:      p,
		sys:    sys,
		rng:    xrand.New(p.Seed, 0x05EED),
		mixCat: xrand.NewCategorical(p.Mix.weights()),
		pcZ:    xrand.NewZipf(p.StaticPCs, pcTheta(p)),
		instr:  make([]uint64, p.Nodes),
	}
	g.gapDist = xrand.NewGeometric(1000 / p.MissesPer1000Instr)

	// Split shared units across the three shared patterns in proportion
	// to their step weights, with at least one unit for any active
	// pattern.
	shares := []float64{p.Mix.Migratory, p.Mix.ProducerConsumer, p.Mix.WidelyShared}
	total := shares[0] + shares[1] + shares[2]
	counts := [3]int{}
	if total > 0 {
		for i, s := range shares {
			counts[i] = int(float64(p.SharedUnits) * s / total)
			if s > 0 && counts[i] == 0 {
				counts[i] = 1
			}
		}
	}

	nextMacroblock := trace.Addr(p.AddrOffsetMacroblocks)
	for pat := 0; pat < 3; pat++ {
		n := counts[pat]
		if n == 0 {
			continue
		}
		sizes := g.sampleGroupSizes(Pattern(pat), n)
		g.units[pat] = make([]*unit, n)
		for i := 0; i < n; i++ {
			base := nextMacroblock * trace.BlocksPerMacroblock
			nextMacroblock += trace.Addr(p.MacroblocksPerUnit)
			u := &unit{
				pattern: Pattern(pat),
				blocks:  unitBlocks(base, p),
				group:   g.sampleGroup(sizes[i]),
				pcRead:  g.samplePC(),
				pcWrite: g.samplePC(),
			}
			u.holder = g.rng.Intn(len(u.group))
			u.producer = g.rng.Intn(len(u.group))
			g.units[pat][i] = u
		}
		g.unitZ[pat] = xrand.NewZipf(n, p.UnitZipfTheta)
	}

	// Streaming regions follow the shared region, one contiguous run per
	// node so Figure 3a's touched-by-one-processor mass is genuine.
	g.streamBase = make([]trace.Addr, p.Nodes)
	g.streamCursor = make([]int, p.Nodes)
	streamStart := nextMacroblock * trace.BlocksPerMacroblock
	for n := 0; n < p.Nodes; n++ {
		g.streamBase[n] = streamStart + trace.Addr(n*p.StreamBlocksPerNode)
	}
	return g, nil
}

func pcTheta(p Params) float64 {
	if p.PCZipfTheta > 0 {
		return p.PCZipfTheta
	}
	return 0.9
}

// unitBlocks spreads BlocksPerUnit touched blocks evenly over the unit's
// macroblock span, so density matches Table 2's 64B/1024B footprint ratio.
func unitBlocks(base trace.Addr, p Params) []trace.Addr {
	span := p.MacroblocksPerUnit * trace.BlocksPerMacroblock
	blocks := make([]trace.Addr, p.BlocksPerUnit)
	for i := range blocks {
		blocks[i] = base + trace.Addr(i*span/p.BlocksPerUnit)
	}
	return blocks
}

func (g *Generator) sampleGroupSizes(pat Pattern, n int) []int {
	weights := g.p.GroupSizeWeights
	if pat == WidelyShared {
		weights = g.p.WideGroupSizeWeights
		if weights == nil {
			// Default: widely-shared data touches most of the machine.
			weights = make([]float64, g.p.Nodes+1)
			for k := (3 * g.p.Nodes) / 4; k <= g.p.Nodes; k++ {
				weights[k] = 1
			}
		}
	}
	if weights == nil {
		weights = []float64{0, 0, 1} // default pairwise
	}
	cat := xrand.NewCategorical(weights)
	sizes := make([]int, n)
	for i := range sizes {
		k := cat.Sample(g.rng)
		if k < 2 {
			k = 2
		}
		if k > g.p.Nodes {
			k = g.p.Nodes
		}
		sizes[i] = k
	}
	if g.p.HotUnitsGetLargeGroups {
		// Descending: unit 0 (the hottest Zipf rank) gets the largest
		// group, concentrating misses on widely-touched blocks.
		sortDescending(sizes)
	}
	return sizes
}

// sortDescending orders group sizes largest first. A multiset of ints
// has one sorted order, so the units get the same groups whatever sort
// does it.
func sortDescending(sizes []int) {
	slices.Sort(sizes)
	slices.Reverse(sizes)
}

func (g *Generator) sampleGroup(k int) []nodeset.NodeID {
	perm := g.rng.Perm(g.p.Nodes)
	group := make([]nodeset.NodeID, k)
	for i := 0; i < k; i++ {
		group[i] = nodeset.NodeID(perm[i])
	}
	return group
}

func (g *Generator) samplePC() trace.PC {
	return trace.PC(0x40000 + 4*g.pcZ.Sample(g.rng))
}

// System exposes the coherence oracle driving this generator; the harness
// reads block statistics (Figure 3, Table 2) from it after generation.
func (g *Generator) System() *coherence.System { return g.sys }

// Params returns the workload parameters.
func (g *Generator) Params() Params { return g.p }

// Next produces the next miss. It runs pattern steps until one of their
// accesses misses in the oracle, then returns the trace record and its
// coherence annotation.
func (g *Generator) Next() (trace.Record, coherence.MissInfo) {
	for {
		if g.burstHead >= len(g.burst) {
			g.burst = g.burst[:0]
			g.burstHead = 0
			g.step()
			continue
		}
		a := g.burst[g.burstHead]
		g.burstHead++
		mi, miss := g.sys.Access(a.node, a.addr, a.kind)
		if !miss {
			continue
		}
		kind := trace.GetShared
		if a.kind == coherence.Store {
			kind = trace.GetExclusive
		}
		gap := g.drawGap(a.first)
		g.instr[a.node] += uint64(gap)
		g.generated++
		return trace.Record{
			Addr:      a.addr,
			PC:        a.pc,
			Requester: uint8(a.node),
			Kind:      kind,
			Gap:       gap,
		}, mi
	}
}

// drawGap samples the requester's instruction gap: a full inter-miss gap
// for the first miss of a step, a tight loop-body gap for the rest of a
// spatial burst (these overlap in an out-of-order core, §5.1).
func (g *Generator) drawGap(first bool) uint32 {
	if first {
		return uint32(g.gapDist.Sample(g.rng)) + 1
	}
	return uint32(burstGapDist.Sample(g.rng)) + 1
}

// The generator's fixed-mean geometric samplers: the gap between the
// misses of one spatial burst, and the run of blocks one migratory
// handoff touches.
var (
	burstGapDist     = xrand.NewGeometric(4)
	migratoryRunDist = xrand.NewGeometric(2)
)

// step schedules one pattern step, refilling the access burst.
func (g *Generator) step() {
	switch Pattern(g.mixCat.Sample(g.rng)) {
	case Migratory:
		g.stepMigratory()
	case ProducerConsumer:
		g.stepProducerConsumer()
	case WidelyShared:
		g.stepWidelyShared()
	case Streaming:
		g.stepStreaming()
	}
}

func (g *Generator) pickUnit(pat Pattern) *unit {
	us := g.units[pat]
	if len(us) == 0 {
		return nil
	}
	return us[g.unitZ[pat].Sample(g.rng)]
}

// stepMigratory hands the unit to another group member, which read-
// modify-writes (or store-only updates) every block.
func (g *Generator) stepMigratory() {
	u := g.pickUnit(Migratory)
	if u == nil {
		return
	}
	next := u.holder
	if len(u.group) > 1 {
		next = g.rng.Intn(len(u.group) - 1)
		if next >= u.holder {
			next++
		}
	}
	u.holder = next
	node := u.group[next]
	readFirst := g.rng.Bool(g.p.MigratoryReadFirst)
	// A handoff touches a short sub-run of the unit (a row update touches
	// a few lines, not the whole macroblock), so different blocks of a
	// unit have different last writers — the irregularity that separates
	// block-indexed from macroblock-indexed predictors (§3.4).
	runLen := 1 + migratoryRunDist.Sample(g.rng)
	if runLen > len(u.blocks) {
		runLen = len(u.blocks)
	}
	start := g.rng.Intn(len(u.blocks) - runLen + 1)
	first := true
	for _, b := range u.blocks[start : start+runLen] {
		if readFirst {
			g.push(access{node: node, addr: b, kind: coherence.Load, pc: u.pcRead, first: first})
			first = false
		}
		g.push(access{node: node, addr: b, kind: coherence.Store, pc: u.pcWrite, first: first})
		first = false
	}
}

// stepProducerConsumer alternates a producer writing the whole unit with
// each consumer reading it.
func (g *Generator) stepProducerConsumer() {
	u := g.pickUnit(ProducerConsumer)
	if u == nil {
		return
	}
	if u.phase == 0 {
		node := u.group[u.producer]
		first := true
		for _, b := range u.blocks {
			g.push(access{node: node, addr: b, kind: coherence.Store, pc: u.pcWrite, first: first})
			first = false
		}
		u.phase = 1
		return
	}
	// Consumer phases walk the group, skipping the producer.
	idx := u.phase - 1
	if idx == u.producer {
		idx++
	}
	if idx >= len(u.group) {
		u.phase = 0
		// Occasionally rotate the producer (work queues migrate).
		if g.rng.Bool(0.1) {
			u.producer = g.rng.Intn(len(u.group))
		}
		return
	}
	node := u.group[idx]
	first := true
	for _, b := range u.blocks {
		g.push(access{node: node, addr: b, kind: coherence.Load, pc: u.pcRead, first: first})
		first = false
	}
	u.phase++
}

// stepWidelyShared issues a whole-unit read by a random group member, or
// with probability WidelyWriteFraction a whole-unit write.
func (g *Generator) stepWidelyShared() {
	u := g.pickUnit(WidelyShared)
	if u == nil {
		return
	}
	node := u.group[g.rng.Intn(len(u.group))]
	kind := coherence.Load
	pc := u.pcRead
	if g.rng.Bool(g.p.WidelyWriteFraction) {
		kind = coherence.Store
		pc = u.pcWrite
	}
	first := true
	for _, b := range u.blocks {
		g.push(access{node: node, addr: b, kind: kind, pc: pc, first: first})
		first = false
	}
}

// stepStreaming advances one node's private stream by a short run of
// blocks (a scan), wrapping at the region end.
func (g *Generator) stepStreaming() {
	node := nodeset.NodeID(g.rng.Intn(g.p.Nodes))
	pc := trace.PC(0x40000 + 4*(int(node)%g.p.StaticPCs))
	run := 4
	first := true
	for i := 0; i < run; i++ {
		cur := g.streamCursor[node]
		g.streamCursor[node] = (cur + 1) % g.p.StreamBlocksPerNode
		addr := g.streamBase[node] + trace.Addr(cur)
		kind := coherence.Load
		if g.rng.Bool(g.p.StreamWriteFraction) {
			kind = coherence.Store
		}
		g.push(access{node: node, addr: addr, kind: kind, pc: pc, first: first})
		first = false
	}
}

func (g *Generator) push(a access) { g.burst = append(g.burst, a) }

// Generate materializes n misses into an in-memory trace with its
// per-record coherence annotations. Instruction gaps are rescaled so the
// realized misses-per-1000-instructions matches the target exactly.
func (g *Generator) Generate(n int) (*trace.Trace, []coherence.MissInfo) {
	t := &trace.Trace{Nodes: g.p.Nodes, Records: make([]trace.Record, 0, n)}
	infos := make([]coherence.MissInfo, 0, n)
	var totalGap uint64
	for i := 0; i < n; i++ {
		rec, mi := g.Next()
		totalGap += uint64(rec.Gap)
		t.Append(rec)
		infos = append(infos, mi)
	}
	// Rescale gaps to hit the mpki target despite burst structure.
	target := float64(n) * 1000 / g.p.MissesPer1000Instr
	if totalGap > 0 {
		scale := target / float64(totalGap)
		for i := range t.Records {
			gap := float64(t.Records[i].Gap) * scale
			if gap < 1 {
				gap = 1
			}
			t.Records[i].Gap = uint32(gap)
		}
	}
	return t, infos
}
