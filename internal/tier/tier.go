// Package tier is the two-level cache both content-addressed stores are
// built on: the dataset store (internal/dataset) and the result store
// (internal/results) are two instances of Cache, each supplying only a
// Codec — how a value is named, sized, read and written — and keeping
// its own extra counters.
//
// The memory tier is always present: an entry map that holds every
// value it loads until Purge, with a once-per-key load, so concurrent
// callers of one key share one disk read or computation. Its footprint
// is each resident value's Size, taken once, when the value becomes
// resident; values do not grow afterwards. When a directory is
// configured (SetDir) a content-addressed directory tier sits behind
// it: memory misses probe dir/<Name(key)> before falling back to the
// caller's load, and every loaded or stored value is spilled to the
// directory best-effort so later — and cold — processes skip the load
// entirely. Purging the memory tier never touches files; they stay
// valid and reloadable.
package tier

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ErrMiss is Get's error when no tier holds the key and the caller gave
// no load function.
var ErrMiss = errors.New("tier: miss")

// Codec is what a Cache knows about its values.
type Codec[K comparable, V any] struct {
	// Ext is the extension every value file's name ends in (".dset").
	Ext string
	// Name is the content-addressed file name, ending in Ext, that key k
	// lives under in the directory.
	Name func(k K) string
	// Size is a value's memory-tier footprint in bytes.
	Size func(v V) int64
	// Read loads k's file at path. Any error — a missing, truncated,
	// corrupted or mismatched file — is a directory miss.
	Read func(path string, k K) (V, error)
	// Write saves v as k's file at path, atomically.
	Write func(path string, k K, v V) error
}

// entry is one key's slot. The cache hands out entries under its lock
// but loads outside it: the first caller runs the load inside the
// entry's once while later callers block on the same once.
type entry[V any] struct {
	once     sync.Once
	v        V
	err      error
	resident bool  // in the memory tier: loaded, and not purged or replaced
	size     int64 // the value's Size while resident
}

// Stats are a cache's counters since it was made, plus its resident
// memory-tier footprint.
type Stats struct {
	// Entries and Bytes describe the resident memory tier.
	Entries int
	Bytes   int64
	// MemHits and MemMisses count Get calls served by (or missing) the
	// memory tier.
	MemHits, MemMisses uint64
	// DiskHits and DiskMisses count memory misses served by (or missing)
	// the directory tier. Both stay zero until SetDir configures one.
	DiskHits, DiskMisses uint64
	// SpillErrors counts values the directory tier failed to save (a
	// full, removed or read-only directory).
	SpillErrors uint64
}

// Cache memoizes values by key in memory, with an optional directory
// tier behind. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	codec    Codec[K, V]
	mu       sync.Mutex
	entries  map[K]*entry[V]
	resident int   // entries in the memory tier
	bytes    int64 // their total Size
	dir      string
	stats    Stats
}

// New returns an empty cache with no directory.
func New[K comparable, V any](codec Codec[K, V]) *Cache[K, V] {
	return &Cache[K, V]{codec: codec, entries: make(map[K]*entry[V])}
}

// SetDir configures the directory tier rooted at dir (created if
// missing); an empty dir disables it. Resident entries stay valid.
func (c *Cache[K, V]) SetDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dir = dir
	return nil
}

// Dir returns the configured directory ("" when the tier is disabled).
func (c *Cache[K, V]) Dir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir
}

// Contains reports whether k is resident in the memory tier. It never
// touches the directory.
func (c *Cache[K, V]) Contains(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	return ok && e.resident
}

// Get returns k's value: from memory, else from the directory tier,
// else from load, whose result is then spilled to the directory. A nil
// load turns the last case into ErrMiss. Concurrent callers of one key
// share one load; a failure is returned to them but not cached, so the
// next caller retries.
func (c *Cache[K, V]) Get(k K, load func() (V, error)) (V, error) {
	c.mu.Lock()
	e, ok := c.entries[k]
	if ok {
		c.stats.MemHits++
	} else {
		c.stats.MemMisses++
		e = &entry[V]{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { c.fill(k, e, load) })
	return e.v, e.err
}

// fill is one entry's load: directory first, then load.
func (c *Cache[K, V]) fill(k K, e *entry[V], load func() (V, error)) {
	fromDisk := false
	if dir := c.Dir(); dir != "" {
		// A file that reads back as k's value is authoritative; anything
		// else is a miss that the load below rewrites, healing it.
		e.v, e.err = c.codec.Read(filepath.Join(dir, c.codec.Name(k)), k)
		fromDisk = e.err == nil
		c.mu.Lock()
		if fromDisk {
			c.stats.DiskHits++
		} else {
			c.stats.DiskMisses++
		}
		c.mu.Unlock()
	}
	if !fromDisk {
		if load == nil {
			var zero V
			e.v, e.err = zero, ErrMiss
		} else {
			e.v, e.err = load()
		}
	}
	c.mu.Lock()
	current := c.entries[k] == e
	if current && e.err != nil {
		delete(c.entries, k)
	} else if current {
		c.insertLocked(k, e)
	}
	// else: purged or replaced while loading — the waiters get the
	// value, uncached.
	c.mu.Unlock()
	if e.err == nil && !fromDisk {
		c.spill(k, e.v)
	}
}

// Put stores v under k, replacing any resident value, and spills it to
// the directory tier best-effort.
func (c *Cache[K, V]) Put(k K, v V) {
	e := &entry[V]{v: v}
	e.once.Do(func() {}) // complete: a Get finding it must not load
	c.mu.Lock()
	if old, ok := c.entries[k]; ok {
		c.removeLocked(k, old)
	}
	c.insertLocked(k, e)
	c.mu.Unlock()
	c.spill(k, v)
}

// spill writes v to the directory tier, if any. A failure must not fail
// the caller — it costs only the next cold start — so it is just
// counted.
func (c *Cache[K, V]) spill(k K, v V) {
	dir := c.Dir()
	if dir == "" {
		return
	}
	if c.codec.Write(filepath.Join(dir, c.codec.Name(k)), k, v) != nil {
		c.mu.Lock()
		c.stats.SpillErrors++
		c.mu.Unlock()
	}
}

// insertLocked makes e resident as k's entry. Callers hold c.mu.
func (c *Cache[K, V]) insertLocked(k K, e *entry[V]) {
	c.entries[k] = e
	e.resident = true
	e.size = c.codec.Size(e.v)
	c.resident++
	c.bytes += e.size
}

// removeLocked drops k's entry. Callers hold c.mu.
func (c *Cache[K, V]) removeLocked(k K, e *entry[V]) {
	delete(c.entries, k)
	if e.resident {
		c.resident--
		c.bytes -= e.size
		e.resident, e.size = false, 0
	}
}

// Purge drops every resident entry and returns how many were dropped.
// In-flight loads are detached instead: their callers still get the
// value, it just is not cached. Files are not touched, so purged keys
// reload from the directory tier.
func (c *Cache[K, V]) Purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.resident
	for k, e := range c.entries {
		c.removeLocked(k, e)
	}
	return n
}

// PurgeDir removes every value file from the directory tier, and every
// temp file a crash orphaned between an atomic write's create and
// rename, and returns how many were removed. It is a no-op (0, nil)
// without a directory. Resident entries are unaffected.
func (c *Cache[K, V]) PurgeDir() (int, error) {
	dir := c.Dir()
	if dir == "" {
		return 0, nil
	}
	// internal/atomicfile names a temp file "."+name+"-<random>", so
	// ".<addr>.dset-123"; older writers used ".dset-123". The second
	// pattern matches both.
	ext := strings.TrimPrefix(c.codec.Ext, ".")
	removed := 0
	for _, pattern := range []string{"*." + ext, ".*" + ext + "-*"} {
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

// Stats reports the counters and the resident footprint.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.resident
	st.Bytes = c.bytes
	return st
}
