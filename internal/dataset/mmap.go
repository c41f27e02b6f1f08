package dataset

// mmap-backed zero-copy loads.
//
// The on-disk format (disk.go) writes 8-byte-aligned contiguous column
// sections precisely so a loaded file is usable in place. The copy path
// (ReadFile) realizes that with one full read into the heap; this file
// goes further and maps the file, so a cold start touches only the
// pages replay actually walks, and N processes replaying the same
// dataset on one host share a single page-cache copy instead of N heap
// copies.
//
// Lifecycle is the delicate part: column slices alias the mapping, and
// the Go runtime knows nothing about mapped memory, so unmapping while
// any view is live would fault. Every mapping is therefore owned by the
// one Dataset decoded from it, and both view types (Region and
// Replayer) pin the Dataset, as do the columns Replayer.Take hands out,
// which point into the cursor. A GC cleanup
// unmaps the region when the Dataset becomes unreachable — which, by
// construction, is after the last view is gone.
// Store purges and in-place heals remove or rename over the *file*;
// POSIX keeps established mappings valid across both, so a replay that
// spans a purge never notices.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
)

// errMmapUnsupported tells the store to fall back to the ReadFile copy
// path: the platform has no mmap, the host is big-endian (columns would
// need conversion, defeating the point), or the mmap syscall itself
// refused this particular file (some filesystems do).
var errMmapUnsupported = errors.New("dataset: mmap unavailable")

// mapping is one mmap region, owned by the Dataset decoded from it. A
// runtime cleanup releases it when the Dataset is collected.
type mapping struct {
	data    []byte
	onUnmap func(int64)
}

// release unmaps the region and reports the freed bytes through onUnmap
// (the owning store's accounting). It runs once per mapping, and is safe
// to call from the runtime's cleanup goroutine.
func (m *mapping) release() {
	size := int64(len(m.data))
	_ = munmapBytes(m.data)
	m.data = nil
	if m.onUnmap != nil {
		m.onUnmap(size)
	}
}

// openMapped maps path and decodes it in place: header and layout are
// always validated, the payload CRC only when verifyCRC is set — the
// store verifies a key's file once and trusts it afterwards (content
// addresses make rewrites byte-identical, so the trust is sound). The
// returned dataset's columns alias the mapping zero-copy; onUnmap fires
// once, when the dataset is collected and the mapping released. Returns
// errMmapUnsupported when the caller should fall back to the copy path,
// any other error for a genuinely unreadable or invalid file.
func openMapped(path string, verifyCRC bool, onUnmap func(int64)) (*Dataset, int64, error) {
	if !mmapSupported || !hostLittle {
		return nil, 0, errMmapUnsupported
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := fi.Size()
	if size < headerLen {
		return nil, 0, fmt.Errorf("dataset: %s: %w (file is %d bytes)", path, ErrBadFormat, size)
	}
	if size > math.MaxInt {
		return nil, 0, fmt.Errorf("dataset: %s: %w (implausible size)", path, ErrBadFormat)
	}
	data, err := mmapFile(f, int(size))
	if err != nil {
		return nil, 0, fmt.Errorf("%w (%v)", errMmapUnsupported, err)
	}
	mp := &mapping{data: data, onUnmap: onUnmap}
	ds, err := decode(data, verifyCRC)
	if err != nil {
		// Nothing ever observed this mapping: unmap directly, without
		// touching the store's accounting.
		mp.onUnmap = nil
		mp.release()
		return nil, 0, fmt.Errorf("dataset: %s: %w", path, err)
	}
	ds.mp = mp
	// The cleanup argument must not reach the Dataset (it never would be
	// collected otherwise); the mapping doesn't.
	runtime.AddCleanup(ds, func(m *mapping) { m.release() }, mp)
	return ds, size, nil
}
