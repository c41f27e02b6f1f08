package dataset

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

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

// entry is one memoized dataset. The store hands out entries under its
// lock but generates outside it: the first caller runs gen inside the
// entry's once while later callers block on the same once, so every key
// is generated exactly once no matter how many sweep cells race for it.
type entry struct {
	once sync.Once
	ds   *Dataset
	err  error
	elem *list.Element // position in the store's LRU list
	// charged is what this entry currently contributes to the store's
	// byte total: the dataset's generation-time footprint plus any
	// legacy views materialized since (reported through Dataset.grow).
	charged int64
}

// Store memoizes datasets by key. The zero value is not ready; use
// NewStore. All methods are safe for concurrent use.
//
// A store is tiered. The memory tier is always present: a singleflight
// map with an LRU byte limit. When a dataset directory is configured
// (SetDir) an on-disk content-addressed tier sits behind it: memory
// misses first probe dir/<sha256(key)>.dset and load the columns
// zero-copy (disk.go) before falling back to generation, and every
// generated dataset is spilled to the directory so later — and cold —
// processes skip generation entirely. Evicting or purging the memory
// tier never touches disk entries; they stay valid and reloadable.
type Store struct {
	mu      sync.Mutex
	entries map[Key]*entry
	lru     *list.List // of Key, front = most recently used
	bytes   int64
	limit   int64
	dir     string
	mmap    bool
	// verified remembers keys whose on-disk file has passed a full CRC
	// check (or was written by this process). Later opens of a verified
	// key skip the checksum scan: content addressing plus deterministic
	// generation make every rewrite of the file byte-identical, so one
	// verification is as good as many.
	verified map[Key]bool
	stats    Stats
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

// NewStore returns an empty store with no size limit. The mmap disk
// path is on by default wherever the platform supports it.
func NewStore() *Store {
	return &Store{
		entries:  make(map[Key]*entry),
		lru:      list.New(),
		mmap:     mmapSupported && hostLittle,
		verified: make(map[Key]bool),
	}
}

// Shared is the process-wide store the experiment Runner and harnesses
// use, so repeated sweeps — even across independent Runner instances —
// generate each (workload, seed, scale) trace once per process.
var Shared = NewStore()

// SetLimit caps the store's resident dataset bytes; 0 (the default)
// means unbounded. When an insert pushes the total over the limit the
// least-recently-used datasets are evicted (never the one being
// inserted). Evicted keys regenerate on next use.
func (s *Store) SetLimit(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = bytes
	s.trimLocked(nil)
}

// SetDir configures the on-disk dataset tier rooted at dir (created if
// missing); an empty dir disables the tier. Changing the directory does
// not invalidate datasets already resident in memory.
func (s *Store) SetDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dir = dir
	return nil
}

// Dir returns the configured dataset directory ("" when the disk tier is
// disabled).
func (s *Store) Dir() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dir
}

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
func (s *Store) Contains(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	return ok && e.elem != nil
}

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

// Get returns the dataset for key: from memory, else from the disk tier
// (when configured), else by generating it with gen. Concurrent callers
// of the same key share one load/generation; callers of different keys
// proceed in parallel. Generated datasets are spilled to the disk tier
// best-effort: a failed spill only counts in Stats.SpillErrors. A failed
// generation is not cached.
func (s *Store) Get(key Key, gen func() (*Dataset, error)) (*Dataset, error) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.stats.MemHits++
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
	} else {
		s.stats.MemMisses++
		e = &entry{}
		s.entries[key] = e
	}
	s.mu.Unlock()

	e.once.Do(func() {
		if dir := s.Dir(); dir != "" {
			// Disk tier: a valid file whose decoded identity re-derives
			// the same key is authoritative — generation is deterministic,
			// so its contents are exactly what gen would produce. A
			// missing, truncated, corrupted or colliding file is a plain
			// disk miss and falls through to generation (which rewrites
			// the file, healing corruption in place).
			if ds, err := s.openDisk(key, dir); err == nil {
				s.bump(func(st *Stats) { st.DiskHits++ })
				e.ds = ds
			} else {
				s.bump(func(st *Stats) { st.DiskMisses++ })
			}
		}
		spill := false
		if e.ds == nil {
			s.bump(func(st *Stats) { st.Generations++ })
			e.ds, e.err = gen()
			spill = e.err == nil
		}
		s.mu.Lock()
		if e.err != nil {
			// Do not cache failures: the next caller retries.
			if s.entries[key] == e {
				delete(s.entries, key)
			}
			s.mu.Unlock()
			return
		}
		if s.entries[key] == e {
			e.elem = s.lru.PushFront(key)
			e.charged = e.ds.Bytes()
			s.bytes += e.charged
			// Late allocations (materialized legacy views) keep the byte
			// accounting honest: without this, timing-path datasets would
			// outgrow their recorded footprint by up to ~1.75x and defeat
			// the limit.
			e.ds.grow = func(delta int64) { s.growEntry(e, delta) }
			s.trimLocked(e)
		}
		// else: purged while loading — hand the dataset to the waiters
		// without caching it.
		s.mu.Unlock()
		if spill {
			if dir := s.Dir(); dir != "" {
				// Best-effort: a read-only or full directory must not fail
				// the sweep, it only costs the next cold start — and
				// shows in SpillErrors.
				if WriteFile(key.Path(dir), e.ds) != nil {
					s.bump(func(st *Stats) { st.SpillErrors++ })
				} else {
					// We wrote the bytes ourselves; a later reopen can
					// skip the checksum scan.
					s.mu.Lock()
					s.verified[key] = true
					s.mu.Unlock()
				}
			}
		}
	})
	return e.ds, e.err
}

// openDisk loads key's content-addressed file, preferring the mmap tier
// when it is enabled: the columns alias the mapping zero-copy, the CRC
// is verified on the key's first open only, and the mapped bytes are
// tracked in Stats until the mapping's last reader is collected. Any
// reason the mmap path can't serve this file (platform, byte order, the
// syscall itself) falls back to the ReadFile copy; validation failures
// do not — a corrupt file is corrupt either way.
func (s *Store) openDisk(key Key, dir string) (*Dataset, error) {
	path := key.Path(dir)
	s.mu.Lock()
	useMmap := s.mmap
	verify := !s.verified[key]
	s.mu.Unlock()
	if useMmap {
		ds, size, err := openMapped(path, verify, func(n int64) {
			s.bump(func(st *Stats) { st.MappedBytes -= n })
		})
		switch {
		case err == nil:
			s.bump(func(st *Stats) { st.MappedBytes += size })
			if KeyOf(ds.Params(), ds.Warm(), ds.Measure()) != key {
				// Collision or misplaced file; the mapping is released
				// when ds is collected.
				return nil, fmt.Errorf("dataset: %s: content does not match key", path)
			}
			s.mu.Lock()
			s.stats.MapHits++
			s.verified[key] = true
			s.mu.Unlock()
			return ds, nil
		case errors.Is(err, errMmapUnsupported):
			// Fall through to the copy path.
		default:
			return nil, err
		}
	}
	ds, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	if KeyOf(ds.Params(), ds.Warm(), ds.Measure()) != key {
		return nil, fmt.Errorf("dataset: %s: content does not match key", path)
	}
	s.mu.Lock()
	s.verified[key] = true
	s.mu.Unlock()
	return ds, nil
}

// bump applies one counter update under the store lock.
func (s *Store) bump(fn func(*Stats)) {
	s.mu.Lock()
	fn(&s.stats)
	s.mu.Unlock()
}

// growEntry records a dataset's late allocation against its entry and,
// while the entry is still resident, against the store's byte total.
func (s *Store) growEntry(e *entry, delta int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e.charged += delta
	if e.elem != nil {
		s.bytes += delta
		s.trimLocked(e)
	}
}

// trimLocked evicts LRU entries until the byte total fits the limit,
// sparing keep (the entry just inserted). Callers hold s.mu.
func (s *Store) trimLocked(keep *entry) {
	if s.limit <= 0 {
		return
	}
	for s.bytes > s.limit {
		back := s.lru.Back()
		if back == nil {
			return
		}
		key := back.Value.(Key)
		e := s.entries[key]
		if e == keep {
			// The newest dataset may alone exceed the limit; keep it
			// rather than thrash.
			if s.lru.Len() == 1 {
				return
			}
			s.lru.MoveToFront(back)
			continue
		}
		s.removeLocked(key, e)
	}
}

// removeLocked drops one fully-generated entry. Callers hold s.mu.
func (s *Store) removeLocked(key Key, e *entry) {
	delete(s.entries, key)
	if e.elem != nil {
		s.lru.Remove(e.elem)
		e.elem = nil
	}
	s.bytes -= e.charged
	e.charged = 0
}

// Purge drops every cached dataset from the memory tier and returns how
// many were dropped. In-flight generations are unaffected (their callers
// still get their dataset; it just won't be cached under a purged key —
// the entry object itself survives for them). The disk tier is not
// touched: spilled files stay valid and purged keys reload from disk on
// next use instead of regenerating. Use PurgeDir to drop the disk tier.
func (s *Store) Purge() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for key, e := range s.entries {
		if e.elem == nil {
			// Still generating: detach it so it completes uncached;
			// waiters blocked on the entry still get their dataset.
			delete(s.entries, key)
			continue
		}
		s.removeLocked(key, e)
		n++
	}
	return n
}

// PurgeDir removes every dataset file from the configured disk tier —
// including any ".dset-*" temp files orphaned by a crash between
// WriteFile's create and rename — and returns how many were removed.
// It is a no-op (0, nil) when no directory is configured. Memory-tier
// residents are unaffected.
func (s *Store) PurgeDir() (int, error) {
	dir := s.Dir()
	if dir == "" {
		return 0, nil
	}
	removed := 0
	for _, pattern := range []string{"*.dset", ".dset-*"} {
		matches, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return removed, err
		}
		for _, path := range matches {
			if err := os.Remove(path); err != nil {
				return removed, err
			}
			removed++
		}
	}
	return removed, nil
}

// Stats reports the store's per-tier counters since process start and
// the resident memory-tier footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Datasets = s.lru.Len()
	st.Bytes = s.bytes
	return st
}

// OpenShared resolves a fully-specified workload through the Shared
// store and returns a fresh replay cursor — the sweep path's stream
// source. The dataset is generated on the first call for its key and
// replayed by every later call.
func OpenShared(p workload.Params, warm, measure int) (*Replayer, error) {
	ds, err := Shared.Get(KeyOf(p, warm, measure), func() (*Dataset, error) {
		return Generate(p, warm, measure)
	})
	if err != nil {
		return nil, err
	}
	return ds.Replay(), nil
}

// GetShared resolves a fully-specified workload through the Shared store
// and returns the dataset itself — the experiment harnesses' entry
// point.
func GetShared(p workload.Params, warm, measure int) (*Dataset, error) {
	return Shared.Get(KeyOf(p, warm, measure), func() (*Dataset, error) {
		return Generate(p, warm, measure)
	})
}
