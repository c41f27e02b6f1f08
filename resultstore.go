package destset

import (
	"encoding/json"
	"fmt"

	"destset/internal/results"
	"destset/internal/sweep"
)

// Result store: content-addressed memoization of completed sweep cells.
//
// A cell's CellID fingerprint is a pure function of its spec, workload,
// seed, scale and observation interval, so a completed cell's result —
// the aggregate totals plus the exact observation stream it emitted —
// can be stored under that fingerprint and replayed by any later run
// that plans the same cell: same process, next process, or a
// distributed sweep restarted from scratch. Both runners consult the
// store through the sweep executor's lookup and store hooks, and a hit
// replays its stored stream in the cell's own plan-order slot. Because
// the stored stream is the byte-for-byte JSON round-trip of what the
// cell emitted, a warm rerun writes a JSONL file byte-identical to a
// cold one, at any parallelism and with no merge pass, while computing
// only the cells whose fingerprints changed.
//
// Cells of workloads with a custom Open stream source are never cached:
// their fingerprints cover only the label and shape, not the stream
// contents, so a hit could replay a different experiment's results.

// ResultStats are a result store's per-tier counters; see
// results.Stats. Stores counts cells actually computed and offered to
// the store — a warm rerun keeps it at zero.
type ResultStats = results.Stats

// ResultStore is a tiered (memory LRU + disk) store of completed sweep
// cells, content-addressed by plan-cell fingerprint. Attach one to a
// runner with WithResultStore, or configure the process-wide shared
// store with SetResultDir. All methods are safe for concurrent use.
type ResultStore struct {
	s *results.Store
}

// NewResultStore returns an empty, memory-only result store. SetDir
// adds the persistent disk tier.
func NewResultStore() *ResultStore {
	return &ResultStore{s: results.NewStore()}
}

// SetDir configures the store's on-disk tier rooted at dir (created if
// missing); an empty dir disables the tier.
func (rs *ResultStore) SetDir(dir string) error { return rs.s.SetDir(dir) }

// Dir returns the configured result directory ("" when the disk tier
// is disabled).
func (rs *ResultStore) Dir() string { return rs.s.Dir() }

// SetLimit caps the store's resident record bytes; 0 (the default)
// means unbounded. Least-recently-used records are evicted first and
// reload from the disk tier — or recompute — on next use.
func (rs *ResultStore) SetLimit(bytes int64) { rs.s.SetLimit(bytes) }

// Purge drops every record from the memory tier and returns how many
// were dropped; the disk tier is untouched.
func (rs *ResultStore) Purge() int { return rs.s.Purge() }

// PurgeDir removes every record file (and orphaned temp file) from the
// disk tier and returns how many were removed.
func (rs *ResultStore) PurgeDir() (int, error) { return rs.s.PurgeDir() }

// Stats reports the store's per-tier hit/miss/store counters and
// resident footprint.
func (rs *ResultStore) Stats() ResultStats { return rs.s.Stats() }

// sharedResults is the process-wide result store. Unlike the dataset
// store it participates in runs only once SetResultDir names a
// directory: result caching changes what a "run" measures (benchmarks
// rerunning one sweep must keep computing it), so it is strictly
// opt-in.
var sharedResults = NewResultStore()

// SharedResults returns the process-wide result store SetResultDir
// configures — the store handed to coordinators and servers that
// should share the CLI flags' directory.
func SharedResults() *ResultStore { return sharedResults }

// SetResultDir points the process-wide result store at dir (created if
// missing) and enables result caching for every Runner and TimingRunner
// in the process that does not carry its own WithResultStore: completed
// cells are served from the store and only misses compute. An empty dir
// disables both the tier and the implicit caching. This is the
// result-side mirror of SetDatasetDir.
func SetResultDir(dir string) error { return sharedResults.SetDir(dir) }

// ResultDir returns the directory configured with SetResultDir ("").
func ResultDir() string { return sharedResults.Dir() }

// ResultStoreStats reports the process-wide result store's counters.
func ResultStoreStats() ResultStats { return sharedResults.Stats() }

// PurgeResults drops the process-wide result store's memory tier.
func PurgeResults() int { return sharedResults.Purge() }

// PurgeResultDir removes every record file from the process-wide
// store's disk tier.
func PurgeResultDir() (int, error) { return sharedResults.PurgeDir() }

// WithResultStore attaches a result store to a runner: each planned
// cell is looked up before it executes — a hit replays the stored
// result and observation stream, a miss computes and is stored. A nil
// store restores the default (the shared store, when SetResultDir has
// enabled it).
func WithResultStore(rs *ResultStore) RunnerOption {
	return func(c *runnerConfig) { c.resultStore = rs }
}

// resolveResultStore picks the store a run consults: an explicit
// WithResultStore wins, else the shared store once SetResultDir armed
// it, else none.
func (c *runnerConfig) resolveResultStore() *ResultStore {
	if c.resultStore != nil {
		return c.resultStore
	}
	if sharedResults.Dir() != "" {
		return sharedResults
	}
	return nil
}

// traceCellRecord is a trace cell's stored payload (JSON). Records
// written by a runner are Final: they carry the built engine's Name()
// and can reconstruct a full RunResult. Records spilled from uploaded
// observation streams (the distributed coordinator's spill path) lack
// the engine name — observation records never carry it — and serve
// observation replay only; a runner treats them as misses and upgrades
// them to Final when it computes the cell.
type traceCellRecord struct {
	Final        bool          `json:"final,omitempty"`
	EngineName   string        `json:"engine_name,omitempty"`
	Totals       Totals        `json:"totals"`
	Observations []Observation `json:"observations,omitempty"`
}

// getTrace loads a trace cell record.
func (rs *ResultStore) getTrace(fp string) (traceCellRecord, bool) {
	kind, payload, ok := rs.s.Get(fp)
	if !ok || kind != PlanKindTrace {
		return traceCellRecord{}, false
	}
	var rec traceCellRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return traceCellRecord{}, false
	}
	return rec, true
}

// putTrace stores a trace cell record (best-effort on the disk tier).
func (rs *ResultStore) putTrace(fp string, rec traceCellRecord) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return
	}
	rs.s.Put(PlanKindTrace, fp, payload)
}

// getTiming loads a timing cell record. The payload is exactly the
// cell's JSONL observation line, so one format serves the runner, the
// coordinator and the observations endpoint alike.
func (rs *ResultStore) getTiming(fp string) (TimingResult, bool) {
	kind, payload, ok := rs.s.Get(fp)
	if !ok || kind != PlanKindTiming {
		return TimingResult{}, false
	}
	var tr TimingResult
	if err := json.Unmarshal(payload, &tr); err != nil {
		return TimingResult{}, false
	}
	return tr, true
}

// putTiming stores a timing cell record.
func (rs *ResultStore) putTiming(fp string, tr TimingResult) {
	payload, err := json.Marshal(tr)
	if err != nil {
		return
	}
	rs.s.Put(PlanKindTiming, fp, payload)
}

// The runners' record codecs: the result-store hooks (see execute) load
// and store a planned cell through them.

// traceCell serves trace cell c to a runner: only Final records
// qualify, since the runner's result needs the built engine's name.
func (rs *ResultStore) traceCell(c PlanCell) (*sweep.Result, []Observation) {
	rec, ok := rs.getTrace(c.Fingerprint)
	if !ok || !rec.Final {
		return nil, nil
	}
	return &sweep.Result{
		Engine:     c.Engine,
		EngineName: rec.EngineName,
		Workload:   c.Workload,
		Seed:       c.Seed,
		Totals:     rec.Totals,
	}, rec.Observations
}

// putTraceCell stores a computed trace cell as a Final record.
func (rs *ResultStore) putTraceCell(fp string, res sweep.Result, obs []Observation) {
	rs.putTrace(fp, traceCellRecord{
		Final:        true,
		EngineName:   res.EngineName,
		Totals:       res.Totals,
		Observations: obs,
	})
}

// timingCell serves timing cell c to a runner; the cell's one
// observation is its result.
func (rs *ResultStore) timingCell(c PlanCell) (*TimingResult, []TimingObservation) {
	tr, ok := rs.getTiming(c.Fingerprint)
	if !ok {
		return nil, nil
	}
	return &tr, []TimingObservation{tr}
}

// putTimingCell stores a computed timing cell.
func (rs *ResultStore) putTimingCell(fp string, tr TimingResult, _ []TimingObservation) {
	rs.putTiming(fp, tr)
}

// HasCell reports whether the store can serve cell fp to a runner of
// the given kind — the lookup the runners themselves perform, without
// materializing the result. Trace records require Final (see
// traceCellRecord); timing records are always complete.
func (rs *ResultStore) HasCell(kind, fp string) bool {
	switch kind {
	case PlanKindTrace:
		rec, ok := rs.getTrace(fp)
		return ok && rec.Final
	case PlanKindTiming:
		_, ok := rs.getTiming(fp)
		return ok
	}
	return false
}

// CellRecords returns cell fp's stored observation stream as JSONL
// record lines — byte-identical to what a JSONLObserver wrote when the
// cell computed — along with the plan kind the record belongs to. It is
// the kind-agnostic lookup behind CellLines and the sweepapi
// observations endpoint. Unlike the runner path, non-Final trace
// records qualify — replaying observations needs no engine name.
func (rs *ResultStore) CellRecords(fp string) (kind string, lines [][]byte, ok bool) {
	kind, payload, ok := rs.s.Get(fp)
	if !ok {
		return "", nil, false
	}
	switch kind {
	case PlanKindTrace:
		var rec traceCellRecord
		if json.Unmarshal(payload, &rec) != nil || len(rec.Observations) == 0 {
			return "", nil, false
		}
		lines = make([][]byte, 0, len(rec.Observations))
		for _, o := range rec.Observations {
			line, err := json.Marshal(o)
			if err != nil {
				return "", nil, false
			}
			lines = append(lines, line)
		}
		return kind, lines, true
	case PlanKindTiming:
		var tr TimingResult
		if json.Unmarshal(payload, &tr) != nil {
			return "", nil, false
		}
		line, err := json.Marshal(tr)
		if err != nil {
			return "", nil, false
		}
		return kind, [][]byte{line}, true
	}
	return "", nil, false
}

// CellLines returns cell fp's observation stream when the stored record
// belongs to a plan of the given kind. This is the distributed
// coordinator's lookup: a hit cell's lines are merged into the output
// without leasing the cell to any worker.
func (rs *ResultStore) CellLines(kind, fp string) ([][]byte, bool) {
	got, lines, ok := rs.CellRecords(fp)
	if !ok || got != kind {
		return nil, false
	}
	return lines, true
}

// StoreCellLines stores cell fp from its raw JSONL observation lines —
// the distributed coordinator's spill: accepted uploads land here so a
// restarted sweep (or a local rerun pointed at the same directory)
// resumes warm. Trace lines must be the cell's full observation stream
// in emission order; the aggregate totals are recovered from the last
// observation's cumulative counters. Timing cells carry exactly one
// line.
func (rs *ResultStore) StoreCellLines(kind, fp string, lines [][]byte) error {
	if len(lines) == 0 {
		return fmt.Errorf("destset: cell %s has no observation records", fp)
	}
	switch kind {
	case PlanKindTrace:
		obs := make([]Observation, len(lines))
		for i, line := range lines {
			if err := json.Unmarshal(line, &obs[i]); err != nil {
				return fmt.Errorf("destset: cell %s record %d: %w", fp, i, err)
			}
		}
		rs.putTrace(fp, traceCellRecord{
			Totals:       obs[len(obs)-1].Cumulative,
			Observations: obs,
		})
		return nil
	case PlanKindTiming:
		if len(lines) != 1 {
			return fmt.Errorf("destset: timing cell %s has %d observation records, want 1", fp, len(lines))
		}
		var tr TimingResult
		if err := json.Unmarshal(lines[0], &tr); err != nil {
			return fmt.Errorf("destset: cell %s: %w", fp, err)
		}
		rs.putTiming(fp, tr)
		return nil
	}
	return fmt.Errorf("destset: unknown plan kind %q", kind)
}
