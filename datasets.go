package destset

import "destset/internal/dataset"

// The runners resolve every WorkloadSpec through a process-wide dataset
// store: each (workload, seed, warm, measure) trace is generated once,
// annotated by the coherence oracle once, and then replayed by every
// sweep cell — and by every later runner — through zero-copy cursors
// and regions.
//
// The store is tiered. The memory tier is always on; SetDatasetDir adds
// a persistent on-disk tier behind it: generated datasets are spilled to
// a content-addressed, versioned columnar file (trace and annotations
// both), and memory misses reload from disk — zero-copy — instead of
// regenerating. Point every process of a sharded sweep at the same
// directory and cold starts cost one file read per dataset. The
// functions below manage both tiers.

// DatasetStats are the shared dataset store's per-tier counters since
// process start, plus its resident memory-tier footprint. A process
// whose Generations stays zero did all its work from cache — the
// cold-start property a warm dataset directory provides.
type DatasetStats = dataset.Stats

// DatasetCacheStats reports the shared dataset store's per-tier
// hit/miss/generation counters and resident memory footprint.
func DatasetCacheStats() DatasetStats {
	return dataset.Shared.Stats()
}

// SetDatasetDir configures the shared store's on-disk dataset tier
// rooted at dir, creating the directory if needed; "" disables the
// tier. See the package comment above for the tiering contract, and
// EXPERIMENTS.md for the on-disk layout.
func SetDatasetDir(dir string) error { return dataset.Shared.SetDir(dir) }

// DatasetDir returns the configured on-disk dataset directory ("" when
// disabled).
func DatasetDir() string { return dataset.Shared.Dir() }

// PurgeDatasets drops every cached dataset from the memory tier and
// returns how many were dropped. The disk tier is deliberately not
// touched: spilled files remain valid, and purged keys reload from disk
// on next use (a disk hit, not a regeneration). Results are unaffected
// either way — generation is deterministic. Use PurgeDatasetDir to drop
// the disk tier.
func PurgeDatasets() int { return dataset.Shared.Purge() }

// PurgeDatasetDir removes every dataset file (and temp file a crash
// orphaned mid-write) from the configured disk tier and returns how
// many were removed; it is a no-op without a configured directory. Memory-tier residents are unaffected, so a
// process can clear stale disk space without giving up its warm cache.
func PurgeDatasetDir() (int, error) { return dataset.Shared.PurgeDir() }
