// Package memtest measures what one steady-state operation allocates,
// for the tier-1 allocation budgets.
package memtest

import (
	"runtime"
	"runtime/debug"
)

// PerRun calls op once to warm up (first dials, pool growth, lazy
// set-up), then runs more times, and returns the mean heap bytes and
// allocations per call. The counters are process-wide, so work op hands
// to other goroutines, such as an HTTP server's, is included. GOMAXPROCS
// is 1 while it measures, so -cpu does not change the schedule measured.
func PerRun(runs int, op func()) (bytes, allocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	runtime.GC()
	return measure(runs, op)
}

// PerRunNoGC is PerRun with the collector off from the warm-up call to
// the last measured one (debug.SetGCPercent(-1), restored afterwards)
// and no collection between them: what an earlier call left held only
// weakly, such as a recycled predictor bank, is still there for the next
// call to take.
func PerRunNoGC(runs int, op func()) (bytes, allocs float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op()
	return measure(runs, op)
}

// measure runs op runs times and returns the mean heap bytes and
// allocations per call.
func measure(runs int, op func()) (bytes, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	n := float64(runs)
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
}
