package predictor

import (
	"destset/internal/nodeset"
	"destset/internal/trace"
)

// stickySpatialPredictor reimplements the original multicast snooping
// predictor of Bilir et al. as the prior-work baseline (§3.5).
//
// It differs from the Table 3 policies in three deliberate ways that the
// paper calls out:
//
//   - "Sticky": it only trains up (adding nodes to an entry's mask); the
//     only train-down mechanism is entry replacement.
//   - "Spatial": a prediction ORs the masks of the indexed entry and its k
//     immediate table neighbors (k = 1 here), approximating spatial
//     locality without macroblock indexing.
//   - It is direct-mapped and ignores tags when predicting, so aliased
//     blocks pollute each other's masks.
//
// It trains on data responses, on observed external requests, and — unlike
// the Table 3 policies — on directory retry feedback, which is how the
// original learned destination sets.
type stickySpatialPredictor struct {
	cfg   Config
	mask  uint64
	tags  []uint64
	sets  []nodeset.Set
	valid []bool
}

func newStickySpatial(cfg Config) *stickySpatialPredictor {
	entries := cfg.Entries
	if entries == 0 {
		// The original design is inherently finite (neighbor aggregation
		// needs a fixed geometry); default to the published 4K entries.
		entries = 4096
	}
	return &stickySpatialPredictor{
		cfg:   cfg,
		mask:  uint64(entries - 1),
		tags:  make([]uint64, entries),
		sets:  make([]nodeset.Set, entries),
		valid: make([]bool, entries),
	}
}

func (p *stickySpatialPredictor) Name() string { return p.cfg.Name() }

func (p *stickySpatialPredictor) index(addr trace.Addr, pc trace.PC) uint64 {
	return p.cfg.Indexing.Key(addr, pc) & p.mask
}

func (p *stickySpatialPredictor) Predict(q Query) nodeset.Set {
	i := p.index(q.Addr, q.PC)
	n := uint64(len(p.sets))
	// Aggregate entry i with its immediate neighbors, ignoring tags.
	s := p.sets[i] | p.sets[(i+1)&p.mask] | p.sets[(i+n-1)&p.mask]
	return s.Union(q.MinimalSet())
}

// trainUp ORs nodes into the entry for key, resetting the mask when the
// slot held a different tag (the replacement that provides the only
// train-down).
func (p *stickySpatialPredictor) trainUp(addr trace.Addr, pc trace.PC, nodes nodeset.Set) {
	key := p.cfg.Indexing.Key(addr, pc)
	i := key & p.mask
	if !p.valid[i] || p.tags[i] != key {
		p.tags[i] = key
		p.valid[i] = true
		p.sets[i] = 0
	}
	p.sets[i] = p.sets[i].Union(nodes)
}

func (p *stickySpatialPredictor) TrainResponse(ev Response) {
	if ev.FromMemory {
		return // sticky: never trains down
	}
	p.trainUp(ev.Addr, ev.PC, nodeset.Single(ev.Responder))
}

func (p *stickySpatialPredictor) TrainRequest(ev External) {
	p.trainUp(ev.Addr, ev.PC, nodeset.Single(ev.Requester))
}

func (p *stickySpatialPredictor) TrainRetry(ev Retry) {
	p.trainUp(ev.Addr, ev.PC, ev.Needed)
}
