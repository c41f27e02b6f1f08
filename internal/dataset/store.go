package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"destset/internal/tier"
	"destset/internal/workload"
)

// Key identifies one generated dataset: a workload identity fingerprint
// plus the generation scale. Two sweep cells with equal keys replay the
// same in-memory dataset.
type Key struct {
	// Source fingerprints everything that determines the stream contents
	// — the full workload parameters including the seed.
	Source string
	// Warm and Measure are the generation scale in misses.
	Warm, Measure int
}

// KeyOf fingerprints a fully-resolved workload (seed already applied) at
// the given scale. The fingerprint renders every Params field, including
// slice contents, so two structurally equal parameter sets share a
// dataset and any difference — a tweaked mixture weight, another seed —
// gets its own.
func KeyOf(p workload.Params, warm, measure int) Key {
	return Key{Source: fmt.Sprintf("%#v", p), Warm: warm, Measure: measure}
}

// Store memoizes datasets by key. The zero value is not ready; use
// NewStore. All methods are safe for concurrent use.
//
// A store is a tier.Cache: a memory tier that holds every dataset it
// loads until Purge, with one generation per key, and, when a dataset
// directory is configured (SetDir), a content-addressed disk tier behind
// it: memory misses first probe dir/<Key.Name()> and load the columns
// zero-copy (disk.go) before falling back to generation, and every
// generated dataset is spilled to the directory so later — and cold —
// processes skip generation entirely. Purging the memory tier never
// touches disk entries; they stay valid and reloadable.
type Store struct {
	c *tier.Cache[Key, *Dataset]

	mu   sync.Mutex
	mmap bool
	// verified remembers keys whose on-disk file has passed a full CRC
	// check (or was written by this process). Later opens of a verified
	// key skip the checksum scan: content addressing plus deterministic
	// generation make every rewrite of the file byte-identical, so one
	// verification is as good as many.
	verified map[Key]bool

	generations, mapHits atomic.Uint64
	mappedBytes          atomic.Int64
}

// Stats are a store's per-tier counters since process start, plus its
// resident memory-tier footprint.
type Stats struct {
	// Datasets and Bytes describe the resident memory tier.
	Datasets int
	Bytes    int64
	// MemHits and MemMisses count Get calls served by (or missing) the
	// memory tier.
	MemHits, MemMisses uint64
	// DiskHits and DiskMisses count memory misses served by (or missing)
	// the disk tier. Both stay zero until SetDir configures one; a
	// corrupted or mismatched file counts as a disk miss.
	DiskHits, DiskMisses uint64
	// Generations counts datasets actually generated — Get calls that
	// missed every tier. A warm disk tier keeps this at zero across
	// process restarts.
	Generations uint64
	// MapHits counts disk hits served zero-copy from the mmap tier (a
	// subset of DiskHits); the remainder went through the ReadFile copy
	// path. MappedBytes is the store's live mmap-resident footprint:
	// bytes currently mapped, decremented when a mapping's last reader
	// is collected and the region is unmapped.
	MapHits     uint64
	MappedBytes int64
	// SpillErrors counts generated datasets the disk tier failed to
	// save (a full, removed or read-only directory). The spill stays
	// best-effort, so this counter is the only sign that later cold
	// starts will regenerate instead of loading.
	SpillErrors uint64
}

// NewStore returns an empty store. The mmap disk path is on by default
// wherever the platform supports it.
func NewStore() *Store {
	s := &Store{mmap: mmapSupported && hostLittle, verified: make(map[Key]bool)}
	s.c = tier.New(tier.Codec[Key, *Dataset]{
		Ext:   ".dset",
		Name:  Key.Name,
		Size:  (*Dataset).Bytes,
		Read:  s.openDisk,
		Write: s.spill,
	})
	return s
}

// Shared is the process-wide store the experiment Runner and harnesses
// use, so repeated sweeps — even across independent Runner instances —
// generate each (workload, seed, scale) trace once per process.
var Shared = NewStore()

// SetDir configures the on-disk dataset tier rooted at dir (created if
// missing); an empty dir disables the tier. Changing the directory does
// not invalidate datasets already resident in memory.
func (s *Store) SetDir(dir string) error { return s.c.SetDir(dir) }

// Dir returns the configured dataset directory ("" when the disk tier is
// disabled).
func (s *Store) Dir() string { return s.c.Dir() }

// SetMmap enables or disables the mmap disk path. It is on by default;
// platforms without mmap support (or big-endian hosts, whose columns
// need byte-order conversion anyway) silently stay on the ReadFile copy
// path regardless.
func (s *Store) SetMmap(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mmap = on && mmapSupported && hostLittle
}

// Contains reports whether key is resident in the memory tier right
// now. It never touches disk and never populates anything — a cheap
// pre-check for callers deciding whether a fetch is needed.
func (s *Store) Contains(key Key) bool { return s.c.Contains(key) }

// Addr returns the key's content address: the key (workload fingerprint
// and scale) plus the format version, hashed to a fixed-width hex
// string. Versioning the address means a format bump never misreads old
// files — they are simply unreachable and regenerate. The address is
// also the wire name workers use to fetch datasets from a coordinator.
func (key Key) Addr() string {
	h := sha256.New()
	var num [8 * 3]byte
	binary.LittleEndian.PutUint64(num[0:], uint64(key.Warm))
	binary.LittleEndian.PutUint64(num[8:], uint64(key.Measure))
	binary.LittleEndian.PutUint64(num[16:], FileVersion)
	h.Write(num[:])
	h.Write([]byte(key.Source))
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Name returns the content-addressed file name a key lives under in a
// dataset directory.
func (key Key) Name() string { return key.Addr() + ".dset" }

// Path returns the content-addressed file a key lives at under dir.
func (key Key) Path(dir string) string {
	return filepath.Join(dir, key.Name())
}

// Check reports whether the file at path holds key's dataset: it must
// load (header, layout and CRC) and its contents must re-derive key. It
// is the one rule for trusting a file under a content address.
func Check(path string, key Key) error {
	d, err := ReadFile(path)
	if err != nil {
		return err
	}
	if KeyOf(d.Params(), d.Warm(), d.Measure()) != key {
		return fmt.Errorf("dataset: %s does not hold dataset %s", path, key.Addr())
	}
	return nil
}

// Install makes key's content-addressed file under dir hold key's
// dataset and returns the file's path. A file already there is reused
// only if it passes Check; a missing, torn or mismatched file is
// replaced, atomically, by the dataset ds returns.
func Install(dir string, key Key, ds func() (*Dataset, error)) (string, error) {
	if dir == "" {
		return "", fmt.Errorf("dataset: no directory to install into")
	}
	path := key.Path(dir)
	if Check(path, key) == nil {
		return path, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	d, err := ds()
	if err != nil {
		return "", err
	}
	if err := WriteFile(path, d); err != nil {
		return "", err
	}
	return path, nil
}

// Get returns the dataset for key: from memory, else from the disk tier
// (when configured), else by generating it with gen. Concurrent callers
// of the same key share one load/generation; callers of different keys
// proceed in parallel. Generated datasets are spilled to the disk tier
// best-effort: a failed spill only counts in Stats.SpillErrors. A failed
// generation is not cached.
func (s *Store) Get(key Key, gen func() (*Dataset, error)) (*Dataset, error) {
	return s.c.Get(key, func() (*Dataset, error) {
		s.generations.Add(1)
		return gen()
	})
}

// openDisk loads key's content-addressed file at path, preferring the
// mmap tier when it is enabled: the columns alias the mapping zero-copy,
// the CRC is verified on the key's first open only, and the mapped
// bytes are tracked in Stats until the mapping's last reader is
// collected. Any reason the mmap path can't serve this file (platform,
// byte order, the syscall itself) falls back to the ReadFile copy;
// validation failures do not — a corrupt file is corrupt either way.
// A file whose decoded identity does not re-derive key (a collision or
// a misplaced file) is a miss.
func (s *Store) openDisk(path string, key Key) (*Dataset, error) {
	s.mu.Lock()
	useMmap := s.mmap
	verify := !s.verified[key]
	s.mu.Unlock()
	var ds *Dataset
	var size int64
	err := errMmapUnsupported
	if useMmap {
		ds, size, err = openMapped(path, verify, func(n int64) { s.mappedBytes.Add(-n) })
	}
	mapped := err == nil
	if mapped {
		// Released when ds is collected, whether or not it matches key.
		s.mappedBytes.Add(size)
	}
	if errors.Is(err, errMmapUnsupported) {
		ds, err = ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	if KeyOf(ds.Params(), ds.Warm(), ds.Measure()) != key {
		return nil, fmt.Errorf("dataset: %s: content does not match key", path)
	}
	if mapped {
		s.mapHits.Add(1)
	}
	s.mu.Lock()
	s.verified[key] = true
	s.mu.Unlock()
	return ds, nil
}

// spill writes a generated dataset to the disk tier. The store wrote
// the bytes itself, so a later reopen can skip the checksum scan.
func (s *Store) spill(path string, key Key, ds *Dataset) error {
	if err := WriteFile(path, ds); err != nil {
		return err
	}
	s.mu.Lock()
	s.verified[key] = true
	s.mu.Unlock()
	return nil
}

// Purge drops every cached dataset from the memory tier and returns how
// many were dropped. In-flight generations are unaffected (their callers
// still get their dataset; it just won't be cached under a purged key).
// The disk tier is not touched: spilled files stay valid and purged keys
// reload from disk on next use instead of regenerating. Use PurgeDir to
// drop the disk tier.
func (s *Store) Purge() int { return s.c.Purge() }

// PurgeDir removes every dataset file from the configured disk tier —
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
		Datasets: t.Entries, Bytes: t.Bytes,
		MemHits: t.MemHits, MemMisses: t.MemMisses,
		DiskHits: t.DiskHits, DiskMisses: t.DiskMisses,
		Generations: s.generations.Load(), MapHits: s.mapHits.Load(), MappedBytes: s.mappedBytes.Load(),
		SpillErrors: t.SpillErrors,
	}
}

// GetShared resolves a fully-specified workload through the Shared store
// and returns the dataset itself — the sweep runners' and experiment
// harnesses' entry point. The dataset is generated on the first call for
// its key and replayed by every later call.
func GetShared(p workload.Params, warm, measure int) (*Dataset, error) {
	return Shared.Get(KeyOf(p, warm, measure), func() (*Dataset, error) {
		return Generate(p, warm, measure)
	})
}
