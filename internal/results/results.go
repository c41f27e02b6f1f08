// Package results is a content-addressed store for completed sweep-cell
// results, keyed by the cells' stable plan fingerprints (PR 4). It is
// the dataset store's small sibling: where internal/dataset memoizes
// the expensive *inputs* of a sweep (generated traces), this package
// memoizes the *outputs* — a few kilobytes of observations per cell —
// so a rerun whose specs changed in 3 of 10,000 cells computes 3 cells.
//
// Both stores are instances of one shared tier (internal/tier), so this
// package keeps only its record codec, its content address and its
// Stores counter. The memory tier has an LRU byte limit; when a result
// directory is configured (SetDir) an on-disk content-addressed tier
// sits behind it: memory misses probe dir/<sha256(fingerprint)>.rslt
// before reporting a miss, and every stored record is spilled to the
// directory so later — and cold — processes skip the computation
// entirely. Records are opaque payloads tagged with a kind; corruption,
// truncation and version skew are CRC-guarded misses (disk.go), healed
// in place by the next Put.
package results

import (
	"sync/atomic"

	"destset/internal/tier"
)

// record is one stored cell result: a kind tag and its opaque payload.
type record struct {
	kind    string
	payload []byte
}

// Store memoizes result records by fingerprint. The zero value is not
// ready; use NewStore. All methods are safe for concurrent use.
//
// Unlike the dataset store there is no generation: the store does not
// know how to compute a cell, so Get simply reports a miss and the
// caller computes and Puts. Concurrent Puts of the same fingerprint
// carry identical bytes (results are deterministic), so last-write-wins
// is harmless.
type Store struct {
	c      *tier.Cache[string, record]
	stores atomic.Uint64
}

// Stats are a store's per-tier counters since process start, plus its
// resident memory-tier footprint.
type Stats struct {
	// Records and Bytes describe the resident memory tier.
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
	// MemHits and MemMisses count Get calls served by (or missing) the
	// memory tier.
	MemHits   uint64 `json:"mem_hits"`
	MemMisses uint64 `json:"mem_misses"`
	// DiskHits and DiskMisses count memory misses served by (or missing)
	// the disk tier. Both stay zero until SetDir configures one; a
	// corrupted or mismatched file counts as a disk miss.
	DiskHits   uint64 `json:"disk_hits"`
	DiskMisses uint64 `json:"disk_misses"`
	// Stores counts Put calls — cells actually computed (or spilled from
	// an upload) rather than served from a tier. A warm store keeps this
	// at zero across reruns.
	Stores uint64 `json:"stores"`
	// SpillErrors counts stored records the disk tier failed to save (a
	// full, removed or read-only directory). The spill stays
	// best-effort, so this counter is the only sign that later cold
	// processes will recompute instead of loading.
	SpillErrors uint64 `json:"spill_errors"`
}

// NewStore returns an empty store with no size limit.
func NewStore() *Store {
	return &Store{c: tier.New(tier.Codec[string, record]{
		Ext:  ".rslt",
		Name: name,
		Size: func(r record) int64 { return int64(len(r.payload)) },
		Read: func(path, fp string) (record, error) {
			kind, payload, err := ReadFile(path, fp)
			return record{kind, payload}, err
		},
		Write: func(path, fp string, r record) error { return WriteFile(path, r.kind, fp, r.payload) },
	})}
}

// SetLimit caps the store's resident record bytes; 0 (the default)
// means unbounded. When an insert pushes the total over the limit the
// least-recently-used records are evicted (never the one being
// inserted). Evicted records reload from disk — or recompute — on next
// use.
func (s *Store) SetLimit(bytes int64) { s.c.SetLimit(bytes) }

// SetDir configures the on-disk result tier rooted at dir (created if
// missing); an empty dir disables the tier. Changing the directory
// does not invalidate records already resident in memory.
func (s *Store) SetDir(dir string) error { return s.c.SetDir(dir) }

// Dir returns the configured result directory ("" when the disk tier
// is disabled).
func (s *Store) Dir() string { return s.c.Dir() }

// Get returns the record stored under fp: from memory, else from the
// disk tier (when configured). The returned payload is shared; do not
// mutate it.
func (s *Store) Get(fp string) (kind string, payload []byte, ok bool) {
	r, err := s.c.Get(fp, nil)
	return r.kind, r.payload, err == nil
}

// Put stores a record under fp, replacing any resident one, and spills
// it to the disk tier best-effort (a read-only or full directory must
// not fail the sweep; it only costs the next cold start, and shows in
// Stats.SpillErrors). Rewriting a fingerprint whose file was corrupted
// heals it in place. The payload is retained; do not mutate it
// afterwards.
func (s *Store) Put(kind, fp string, payload []byte) {
	s.stores.Add(1)
	s.c.Put(fp, record{kind, payload})
}

// Purge drops every record from the memory tier and returns how many
// were dropped. The disk tier is not touched: spilled files stay valid
// and purged fingerprints reload from disk on next use. Use PurgeDir
// to drop the disk tier.
func (s *Store) Purge() int { return s.c.Purge() }

// PurgeDir removes every record file from the configured disk tier —
// including temp files orphaned by a crash between an atomic write's
// create and rename — and returns how many were removed. It is a no-op
// (0, nil) when no directory is configured. Memory-tier residents are
// unaffected.
func (s *Store) PurgeDir() (int, error) { return s.c.PurgeDir() }

// Stats reports the store's per-tier counters since process start and
// the resident memory-tier footprint.
func (s *Store) Stats() Stats {
	t := s.c.Stats()
	return Stats{
		Records: t.Entries, Bytes: t.Bytes,
		MemHits: t.MemHits, MemMisses: t.MemMisses,
		DiskHits: t.DiskHits, DiskMisses: t.DiskMisses,
		Stores: s.stores.Load(), SpillErrors: t.SpillErrors,
	}
}
