package sweep

// Plans make sweeps addressable and distributable. A sweep's cells have
// always run in one deterministic order (workload-major); a Plan names
// that order: every cell gets a stable CellID whose fingerprint is a
// pure function of the cell's coordinates (spec × workload × seed), and
// the plan itself is fingerprinted over its cells. Two processes built
// from the same specs therefore agree on the plan byte-for-byte, which
// is what lets them split the cell index space (Shard), run disjoint
// subsets, and reassemble the exact full-run result (MergeShards) — with
// mismatched plans rejected up front by fingerprint instead of silently
// merging different experiments.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// CellID is the stable identity of one sweep cell: its display
// coordinates plus a fingerprint of everything that determines the
// cell's result.
type CellID struct {
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

// Fingerprint hashes an ordered list of canonical strings into a stable
// 32-hex-digit digest. Each part is length-prefixed, so part boundaries
// cannot alias.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Plan is a sweep's full cell list in execution order, with a
// fingerprint over the whole.
type Plan struct {
	cells       []CellID
	fingerprint string
}

// NewPlan builds a plan over cells (which must already be in the sweep's
// deterministic execution order). The plan fingerprint covers every
// cell's fingerprint in order, so any difference in specs, workloads,
// seeds, scale or ordering yields a different plan.
func NewPlan(cells []CellID) *Plan {
	parts := make([]string, len(cells))
	for i, c := range cells {
		parts[i] = c.Fingerprint
	}
	return &Plan{
		cells:       append([]CellID(nil), cells...),
		fingerprint: Fingerprint(parts...),
	}
}

// Len returns the number of cells.
func (p *Plan) Len() int { return len(p.cells) }

// Cell returns cell i.
func (p *Plan) Cell(i int) CellID { return p.cells[i] }

// Cells returns the cell list in execution order. The returned slice is
// shared; do not mutate.
func (p *Plan) Cells() []CellID { return p.cells }

// Fingerprint returns the plan's stable fingerprint.
func (p *Plan) Fingerprint() string { return p.fingerprint }

// Shard returns the global cell indices shard shard of shards executes,
// in execution order.
func (p *Plan) Shard(shard, shards int) ([]int, error) {
	return ShardIndices(len(p.cells), shard, shards)
}

// ShardIndices splits the cell index space [0, total) round-robin:
// shard s of n owns the indices s, s+n, s+2n, ... Round-robin (rather
// than contiguous blocks) balances shards even when cost varies
// systematically along the plan order — e.g. one workload's cells being
// uniformly heavier. shards <= 1 (including the 0 of an unsharded
// config) selects everything.
func ShardIndices(total, shard, shards int) ([]int, error) {
	if shards <= 1 {
		if shard != 0 {
			return nil, fmt.Errorf("sweep: shard %d of %d out of range", shard, shards)
		}
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("sweep: shard %d of %d out of range", shard, shards)
	}
	out := make([]int, 0, (total-shard+shards-1)/shards)
	for i := shard; i < total; i += shards {
		out = append(out, i)
	}
	return out, nil
}

// SubsetIndices resolves the cell subset a run executes: an explicit
// cell index list (a leased range handed out by a distributed
// coordinator, say) or, when cells is nil, the round-robin shard
// ShardIndices selects. Explicit lists must be strictly increasing plan
// indices — the runner's result order is the plan order, and duplicates
// would run a cell twice — and are mutually exclusive with sharding.
func SubsetIndices(total int, cells []int, shard, shards int) ([]int, error) {
	if cells == nil {
		return ShardIndices(total, shard, shards)
	}
	if shards > 1 {
		return nil, fmt.Errorf("sweep: explicit cell subset and shard %d/%d are mutually exclusive", shard, shards)
	}
	out := append([]int(nil), cells...)
	prev := -1
	for _, i := range out {
		if i < 0 || i >= total {
			return nil, fmt.Errorf("sweep: cell index %d out of range [0, %d)", i, total)
		}
		if i <= prev {
			return nil, fmt.Errorf("sweep: cell indices must be strictly increasing (%d after %d)", i, prev)
		}
		prev = i
	}
	return out, nil
}

// MergeShards reassembles per-shard result slices into the full-plan
// order: shards[s] must hold exactly the results of the cells
// ShardIndices(total, s, len(shards)) selects, in order — which is what
// a sharded run produces. The inverse of sharding: for any split,
// merging the shard outputs yields the unsharded result slice.
func MergeShards[T any](total int, shards [][]T) ([]T, error) {
	n := len(shards)
	if n == 0 {
		return nil, fmt.Errorf("sweep: no shards to merge")
	}
	out := make([]T, total)
	filled := 0
	for s, results := range shards {
		idx, err := ShardIndices(total, s, n)
		if err != nil {
			return nil, err
		}
		if len(results) != len(idx) {
			return nil, fmt.Errorf("sweep: shard %d/%d has %d results, plan expects %d (incomplete or mis-split run?)",
				s, n, len(results), len(idx))
		}
		for k, i := range idx {
			out[i] = results[k]
		}
		filled += len(idx)
	}
	if filled != total {
		return nil, fmt.Errorf("sweep: merged %d results, plan has %d cells", filled, total)
	}
	return out, nil
}
