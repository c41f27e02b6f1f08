//go:build !race

package memtest

// Race reports whether the race detector is on. It makes sync.Pool drop
// a quarter of its Puts, so code that reuses pooled buffers allocates
// more under -race than in a normal build.
const Race = false
