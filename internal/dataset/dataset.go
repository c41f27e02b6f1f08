// Package dataset implements the generate-once/replay-many trace layer.
//
// The paper's evaluation sweeps many protocol configurations over the
// *same* six workload traces (§4–§5). Generating a workload's annotated
// miss stream is expensive — every access runs through the coherence
// oracle's set-associative caches — while replaying it only walks
// arrays. This package therefore materializes each (workload, seed,
// scale) trace exactly once and hands every consumer a cheap cursor:
//
//   - Dataset is an immutable recording of a generated trace together
//     with its per-miss coherence annotations, in the column layout of
//     coherence.Columns: one contiguous slice per column, sized exactly
//     at generation time (the warm+measure scale is known up front).
//   - Replayer is a zero-copy, zero-allocation cursor over a Dataset
//     implementing the sweep engine's Stream contract. Next returns one
//     miss; Take advances by a whole run of misses and returns the
//     columns with the range they occupy, which protocol engines account
//     without rebuilding each miss (protocol.ProcessRange). Any number of
//     replayers can walk the same dataset concurrently.
//   - Region is a zero-copy random-access view of the warm or measured
//     span for the timing simulator, and At reads one miss anywhere.
//     Nothing materializes a second copy of a dataset's records, so
//     its Bytes is its whole footprint.
//   - Store (store.go) memoizes datasets behind a concurrency-safe,
//     singleflight map so concurrent sweep cells generate each dataset
//     once and replay it everywhere. When a dataset directory is
//     configured the store is tiered: memory in front of an on-disk
//     content-addressed cache (disk.go), so cold processes load the
//     columns straight off disk instead of regenerating. Check is the
//     one rule for trusting a file under a content address from
//     outside the store (it loads as its key), and Install places one:
//     keep a file that passes Check, replace anything else atomically.
//
// Columnar layout matters twice over: it drops per-record padding (a
// Record+MissInfo pair costs 56 bytes as Go structs but 32 bytes as
// columns, with the home node derived from the address), and sequential
// replay walks each column linearly, which is as friendly as the hardware
// allows.
package dataset

import (
	"fmt"
	"sync"

	"destset/internal/cache"
	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/trace"
	"destset/internal/workload"
)

// newColumns allocates every column for exactly n records of a
// nodes-node system. A dataset's columns are allocated exactly once at
// the generation scale — or, for datasets loaded from disk, aliased
// zero-copy into the file buffer (disk.go).
func newColumns(nodes, n int) coherence.Columns {
	return coherence.Columns{
		Nodes:    nodes,
		Addr:     make([]trace.Addr, n),
		PC:       make([]trace.PC, n),
		Sharers:  make([]nodeset.Set, n),
		Gap:      make([]uint32, n),
		Req:      make([]uint8, n),
		Kind:     make([]trace.Kind, n),
		Owner:    make([]nodeset.NodeID, n),
		ReqState: make([]cache.State, n),
	}
}

// Dataset is one workload's generated, annotated trace: a warm region
// followed by a measured region, plus the whole-run block statistics the
// §2 characterization needs. Datasets are immutable after Generate
// returns and safe for concurrent replay.
type Dataset struct {
	params workload.Params
	warm   int
	n      int // warm + measure
	c      coherence.Columns

	// blockStats is the compact snapshot of the oracle's per-block
	// touched-set and miss counters after the whole run, in address
	// order. Keeping the snapshot instead of the live coherence.System
	// releases the oracle's block-table pages and the filled pages of
	// its sixteen modelled L2 caches — megabytes per workload — to the
	// GC.
	//
	// Disk loads whose columns alias the file buffer defer the snapshot:
	// statsRaw aliases the on-file stats region and blockStats is decoded
	// from it on first BlockStats call, so replay-only consumers (the
	// timing path) never pay the copy. nstats is the table length either
	// way.
	blockStats []coherence.BlockStat
	statsRaw   []byte
	nstats     int
	statsOnce  sync.Once

	// mp, when set, is the mmap region the columns alias (mmap.go). The
	// dataset holds the mapping's reference; a runtime cleanup releases
	// it when the dataset — and therefore every view pinning it — is
	// unreachable, and only then is the region unmapped.
	mp *mapping
}

// Generate runs the workload's generator for warm+measure misses and
// records the stream and its oracle annotations. Instruction gaps are
// rescaled per region so each region's realized misses-per-1000-
// instructions matches the workload target, exactly as
// workload.Generator.Generate does; everything else is byte-identical to
// streaming the generator live.
func Generate(p workload.Params, warm, measure int) (*Dataset, error) {
	if warm < 0 || measure < 0 {
		return nil, fmt.Errorf("dataset: negative scale warm=%d measure=%d", warm, measure)
	}
	g, err := workload.Open(p)
	if err != nil {
		return nil, err
	}
	n := warm + measure
	d := &Dataset{params: p, warm: warm, n: n, c: newColumns(p.Nodes, n)}
	for i := 0; i < n; i++ {
		rec, mi := g.Next()
		d.c.Addr[i] = rec.Addr
		d.c.PC[i] = rec.PC
		d.c.Gap[i] = rec.Gap
		d.c.Req[i] = rec.Requester
		d.c.Kind[i] = rec.Kind
		d.c.Owner[i] = mi.Owner
		d.c.Sharers[i] = mi.Sharers
		d.c.ReqState[i] = mi.RequesterState
	}
	// A bandwidth-regulated workload's gaps ARE the regulator's output —
	// rescaling them to the nominal rate would erase the throttling the
	// workload exists to model.
	if !p.Regulate.Enabled() {
		d.rescaleGaps(0, warm)
		d.rescaleGaps(warm, n)
	}
	d.blockStats = snapshotBlockStats(g.System())
	d.nstats = len(d.blockStats)
	return d, nil
}

// FromRecords builds a dataset from an externally parsed, annotated
// miss stream — the trace-ingestion path (internal/ingest). Unlike
// Generate, the instruction gaps are taken exactly as given: imported
// gaps are data, not a synthetic target to rescale toward. The params
// must describe an imported workload so the dataset's identity can never
// collide with a generated one's.
func FromRecords(p workload.Params, recs []trace.Record, infos []coherence.MissInfo, stats []coherence.BlockStat, warm int) (*Dataset, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Kind() != workload.KindImported {
		return nil, fmt.Errorf("dataset: FromRecords needs imported workload params, got kind %q", p.Kind())
	}
	if len(recs) != len(infos) {
		return nil, fmt.Errorf("dataset: %d records with %d annotations", len(recs), len(infos))
	}
	if warm < 0 || warm >= len(recs) {
		return nil, fmt.Errorf("dataset: warm region of %d records leaves no measured region (have %d)", warm, len(recs))
	}
	n := len(recs)
	d := &Dataset{params: p, warm: warm, n: n, c: newColumns(p.Nodes, n)}
	for i, rec := range recs {
		if int(rec.Requester) >= p.Nodes {
			return nil, fmt.Errorf("dataset: record %d requester %d outside %d nodes", i, rec.Requester, p.Nodes)
		}
		d.c.Addr[i] = rec.Addr
		d.c.PC[i] = rec.PC
		d.c.Gap[i] = rec.Gap
		d.c.Req[i] = rec.Requester
		d.c.Kind[i] = rec.Kind
		d.c.Owner[i] = infos[i].Owner
		d.c.Sharers[i] = infos[i].Sharers
		d.c.ReqState[i] = infos[i].RequesterState
	}
	d.blockStats = stats
	d.nstats = len(stats)
	return d, nil
}

// rescaleGaps rescales the instruction gaps of records [lo, hi) so their
// sum hits the workload's misses-per-1000-instructions target despite
// burst structure — the same float arithmetic as Generator.Generate, so
// each region's records reproduce its output bit for bit.
func (d *Dataset) rescaleGaps(lo, hi int) {
	if hi <= lo {
		return
	}
	var totalGap uint64
	for i := lo; i < hi; i++ {
		totalGap += uint64(d.c.Gap[i])
	}
	if totalGap == 0 {
		return
	}
	target := float64(hi-lo) * 1000 / d.params.MissesPer1000Instr
	scale := target / float64(totalGap)
	for i := lo; i < hi; i++ {
		gap := float64(d.c.Gap[i]) * scale
		if gap < 1 {
			gap = 1
		}
		d.c.Gap[i] = uint32(gap)
	}
}

// snapshotBlockStats copies the oracle's per-block statistics into a
// compact slice (touched blocks only, address order).
func snapshotBlockStats(sys *coherence.System) []coherence.BlockStat {
	var out []coherence.BlockStat
	sys.ForEachTouchedBlock(func(b coherence.BlockStat) {
		out = append(out, b)
	})
	return out
}

// Params returns the workload parameters the dataset was generated from.
func (d *Dataset) Params() workload.Params { return d.params }

// Nodes returns the traced system's node count.
func (d *Dataset) Nodes() int { return d.params.Nodes }

// Warm returns the number of warm-region records.
func (d *Dataset) Warm() int { return d.warm }

// Measure returns the number of measured-region records.
func (d *Dataset) Measure() int { return d.n - d.warm }

// Len returns the total record count (warm + measured).
func (d *Dataset) Len() int { return d.n }

// Approximate per-element footprints the byte accounting uses.
const (
	perRecord = 8 + 8 + 4 + 1 + 1 + 1 + 8 + 1 // one slot across all columns
	perStat   = 24                            // coherence.BlockStat with padding
)

// Bytes returns the approximate in-memory footprint of the dataset's
// columns and block statistics; the Store budgets with it.
func (d *Dataset) Bytes() int64 {
	return int64(d.n)*perRecord + int64(d.nstats)*perStat
}

// At returns record i and its coherence annotation. Index 0 is the first
// warm record; the measured region starts at Warm().
func (d *Dataset) At(i int) (trace.Record, coherence.MissInfo) { return d.c.At(i) }

// EachMeasured calls fn for every measured-region record in order. It is
// the characterization harness's scan loop.
func (d *Dataset) EachMeasured(fn func(rec trace.Record, mi coherence.MissInfo)) {
	for i := d.warm; i < d.n; i++ {
		fn(d.At(i))
	}
}

// BlockStats returns the whole-run per-block statistics (touched blocks
// only, address order). The returned slice is shared; do not mutate.
// Aliased disk loads decode the table from the file region on the first
// call (the footprint is already budgeted by Bytes).
func (d *Dataset) BlockStats() []coherence.BlockStat {
	d.statsOnce.Do(func() {
		if d.statsRaw == nil {
			return
		}
		d.blockStats = decodeBlockStats(d.statsRaw, d.nstats)
		d.statsRaw = nil
	})
	return d.blockStats
}

// RecordAt returns record i without assembling its coherence annotation
// — the cheap accessor for consumers (the timing simulator) that evolve
// their own live coherence state.
func (d *Dataset) RecordAt(i int) trace.Record {
	return trace.Record{
		Addr:      d.c.Addr[i],
		PC:        d.c.PC[i],
		Requester: d.c.Req[i],
		Kind:      d.c.Kind[i],
		Gap:       d.c.Gap[i],
	}
}

// Region is a zero-copy, random-access view of one contiguous span of
// the dataset, implementing the timing simulator's Source contract
// (Nodes/Len/Record). Regions share the dataset's columns — no records
// are materialized — and are immutable, so any number of concurrent
// timing runs can replay the same region.
type Region struct {
	d      *Dataset
	lo, hi int
}

// Nodes returns the traced system's node count.
func (r Region) Nodes() int { return r.d.params.Nodes }

// Len returns the region's record count.
func (r Region) Len() int { return r.hi - r.lo }

// Record returns the region's i-th record.
func (r Region) Record(i int) trace.Record { return r.d.RecordAt(r.lo + i) }

// WarmRegion returns the warm span as a zero-copy Source view.
func (d *Dataset) WarmRegion() Region { return Region{d: d, lo: 0, hi: d.warm} }

// MeasureRegion returns the measured span as a zero-copy Source view.
func (d *Dataset) MeasureRegion() Region { return Region{d: d, lo: d.warm, hi: d.n} }

// Replay returns a fresh zero-copy cursor positioned at the first warm
// record. Replayers allocate nothing per Next or Take call and never
// mutate the dataset, so any number can run concurrently.
func (d *Dataset) Replay() *Replayer {
	return &Replayer{d: d, c: d.c, n: d.n}
}

// Replayer is a sequential cursor over a Dataset: the warm region first,
// then the measured region. It implements the sweep engine's Stream
// contract (Next), with reads straight out of the shared columns, and
// hands out whole runs of them (Take). A cursor pins its dataset for its
// whole lifetime — required for mmap-backed datasets, whose columns
// alias a mapping that must not be unmapped while any cursor can still
// read it.
type Replayer struct {
	d *Dataset // pins the dataset (and any backing mapping)
	c coherence.Columns
	i int
	n int
}

// Next returns the next record and its coherence annotation. It panics
// after Len() records, matching the contract of a stream opened at an
// exact scale.
func (r *Replayer) Next() (trace.Record, coherence.MissInfo) {
	i := r.i
	if i >= r.n {
		panic("dataset: replay past the end of the recorded trace")
	}
	r.i = i + 1
	return r.c.At(i)
}

// Take advances the cursor by n records and returns the dataset's
// columns with the range [lo, hi) those records occupy. Like Next it
// panics past the end. The columns are read-only. c points into the
// cursor, which pins the dataset, so a reader that keeps c reachable
// until it is done with the range keeps any backing mapping alive.
func (r *Replayer) Take(n int) (c *coherence.Columns, lo, hi int) {
	lo, hi = r.i, r.i+n
	if n < 0 || hi > r.n {
		panic("dataset: replay past the end of the recorded trace")
	}
	r.i = hi
	return &r.c, lo, hi
}

// Remaining returns how many records are left.
func (r *Replayer) Remaining() int { return r.n - r.i }

// Rewind repositions the cursor at the first warm record.
func (r *Replayer) Rewind() { r.i = 0 }
