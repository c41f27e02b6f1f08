package destset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// JSONLObserver spills sweep observations to a writer as JSON Lines, one
// observation per line — the checkpoint format for long sweeps: a
// partially-written file is still a valid prefix, and live dashboards
// can tail it.
//
// Wire it to a Runner with WithObserver(o.Observe). The Runner
// serializes observer calls and delivers them in plan order, so the
// observer needs no locking of its own and writes the same file at any
// parallelism. Writes are buffered and must be Flush'd (or Close'd)
// when the sweep ends. Encoding or write errors are sticky: the first
// one stops further output and is reported by Err, Flush and Close.
type JSONLObserver struct {
	w   io.Writer
	bw  *bufio.Writer
	err error
}

// NewJSONLObserver returns an observer writing to w.
func NewJSONLObserver(w io.Writer) *JSONLObserver {
	return &JSONLObserver{w: w, bw: bufio.NewWriter(w)}
}

// Observe writes one observation line. It is an Observer.
func (o *JSONLObserver) Observe(obs Observation) { o.write(obs) }

// ObserveTiming writes one timing observation line. It is a
// TimingObserver, so the same sink serves trace-driven Runner sweeps and
// TimingRunner sweeps alike (one file should hold one kind of
// observation; mixing them is possible but the readers below decode a
// homogeneous stream).
func (o *JSONLObserver) ObserveTiming(obs TimingObservation) { o.write(obs) }

// write marshals any observation value as one JSON line.
func (o *JSONLObserver) write(v any) {
	if o.err != nil {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		o.err = fmt.Errorf("destset: encoding observation: %w", err)
		return
	}
	raw = append(raw, '\n')
	if _, err := o.bw.Write(raw); err != nil {
		o.err = fmt.Errorf("destset: writing observation: %w", err)
	}
}

// Err returns the first error encountered, if any.
func (o *JSONLObserver) Err() error { return o.err }

// Flush writes any buffered observations through to the underlying
// writer and returns the observer's first error.
func (o *JSONLObserver) Flush() error {
	if o.err == nil {
		if err := o.bw.Flush(); err != nil {
			o.err = fmt.Errorf("destset: flushing observations: %w", err)
		}
	}
	return o.err
}

// Close flushes and, when the underlying writer is an io.Closer, closes
// it. The first error wins.
func (o *JSONLObserver) Close() error {
	ferr := o.Flush()
	if c, ok := o.w.(io.Closer); ok {
		if cerr := c.Close(); cerr != nil && o.err == nil {
			o.err = fmt.Errorf("destset: closing observation sink: %w", cerr)
		}
	}
	if ferr != nil {
		return ferr
	}
	return o.err
}

// ManifestFormat identifies a shard-manifest record; it is the value of
// the record's "format" field, which no observation record carries.
const ManifestFormat = "destset/shard-manifest"

// ManifestVersion is the current shard-manifest record version.
const ManifestVersion = 1

// ShardManifest is the first record of a shard's JSONL observation
// file: which plan the shard belongs to (by fingerprint and full cell
// list), which shard of how many it is, and which kind of observations
// follow. MergeObservations uses it to reassemble shard files into the
// full-run stream — and to refuse files from different plans.
type ShardManifest struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Kind is PlanKindTrace or PlanKindTiming.
	Kind string `json:"kind"`
	// Plan is the sweep plan's fingerprint (SweepPlan.Fingerprint).
	Plan string `json:"plan"`
	// Shard and Shards name the subset this file holds (see WithShard).
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// Cells is the full plan's cell list in execution order — identical
	// across every shard of one sweep.
	Cells []PlanCell `json:"cells"`
}

// WriteManifest writes a shard-manifest record. Call it once, before
// the sweep runs, so the manifest is the file's first record; readers
// (EachObservation and friends) skip it transparently.
func (o *JSONLObserver) WriteManifest(m ShardManifest) error {
	o.write(m)
	return o.err
}

// manifestToken is the byte sequence every manifest record contains, as
// json.Marshal renders ShardManifest.Format. Scanning for it first
// keeps the per-record manifest check O(n) byte search instead of a
// second JSON parse of every observation line.
var manifestToken = []byte(`"format":"` + ManifestFormat + `"`)

// isManifest reports whether a raw JSON line is a shard-manifest record.
func isManifest(raw []byte) bool {
	if !bytes.Contains(raw, manifestToken) {
		return false
	}
	var probe struct {
		Format string `json:"format"`
	}
	return json.Unmarshal(raw, &probe) == nil && probe.Format == ManifestFormat
}

// eachLine reads r line by line with no line-length cap — a shard
// manifest embeds the plan's full cell list and can outgrow any fixed
// scanner buffer — calling fn with each non-empty line's 1-based number
// and content (line terminator stripped). fn's error stops the scan.
func eachLine(r io.Reader, fn func(line int, raw []byte) error) error {
	br := bufio.NewReaderSize(r, 64*1024)
	line := 0
	for {
		raw, err := br.ReadBytes('\n')
		if len(raw) > 0 {
			line++
			raw = bytes.TrimSuffix(raw, []byte("\n"))
			raw = bytes.TrimSuffix(raw, []byte("\r"))
			if len(raw) > 0 {
				if ferr := fn(line, raw); ferr != nil {
					return ferr
				}
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// ReadObservations decodes a JSON Lines observation stream, as written
// by JSONLObserver, back into observations. Shard-manifest records and
// blank lines are skipped; a malformed line fails with its 1-based line
// number.
func ReadObservations(r io.Reader) ([]Observation, error) {
	var out []Observation
	err := EachObservation(r, func(o Observation) error {
		out = append(out, o)
		return nil
	})
	return out, err
}

// ReadTimingObservations decodes a JSON Lines timing-observation stream,
// as written by JSONLObserver.ObserveTiming, back into observations.
func ReadTimingObservations(r io.Reader) ([]TimingObservation, error) {
	var out []TimingObservation
	err := EachTimingObservation(r, func(o TimingObservation) error {
		out = append(out, o)
		return nil
	})
	return out, err
}

// EachObservation streams a JSON Lines observation file record by
// record: fn is called once per observation, in file order, without the
// file ever being materialized — the constant-memory reader for sweeps
// whose observation logs outgrow RAM. Shard-manifest records and blank
// lines are skipped. A malformed line fails with its 1-based line
// number; an error from fn stops the scan and is returned as-is.
func EachObservation(r io.Reader, fn func(Observation) error) error {
	return eachJSONL(r, fn)
}

// EachTimingObservation streams a JSON Lines timing-observation file
// record by record, in file order; see EachObservation.
func EachTimingObservation(r io.Reader, fn func(TimingObservation) error) error {
	return eachJSONL(r, fn)
}

// eachJSONL streams one homogeneous JSON Lines stream through fn,
// skipping blank lines and shard-manifest records.
func eachJSONL[T any](r io.Reader, fn func(T) error) error {
	return eachLine(r, func(line int, raw []byte) error {
		if isManifest(raw) {
			return nil
		}
		var obs T
		if err := json.Unmarshal(raw, &obs); err != nil {
			return fmt.Errorf("destset: observation line %d: %w", line, err)
		}
		return fn(obs)
	})
}

// errManifestRead stops eachLine once readManifest has its record.
var errManifestRead = errors.New("manifest read")

// readManifest reads a shard file's first record, which must be its
// shard manifest, leaving br at the observation records that follow. It
// returns the manifest and the number of lines consumed.
func readManifest(br *bufio.Reader) (m ShardManifest, lines int, err error) {
	err = eachLine(br, func(line int, raw []byte) error {
		if !isManifest(raw) {
			return fmt.Errorf("line %d: first record is not a shard manifest (was this file written with a sharded -json run?)", line)
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			return fmt.Errorf("line %d: decoding shard manifest: %w", line, err)
		}
		if m.Version != ManifestVersion {
			return fmt.Errorf("line %d: shard manifest version %d, want %d", line, m.Version, ManifestVersion)
		}
		lines = line
		return errManifestRead
	})
	switch {
	case err == errManifestRead:
		return m, lines, nil
	case err == nil:
		err = fmt.Errorf("no shard manifest found")
	}
	return m, 0, err
}

// MergeObservations merges per-shard JSONL observation files — each
// beginning with a ShardManifest, as cmd/timing and cmd/traceeval write
// under -json -shard — into the full-run observation stream on w: one
// merged manifest (shard 0 of 1) followed by every input record,
// verbatim, in the plan's deterministic cell order (records of one cell
// keep their relative order). It refuses inputs whose plan fingerprints
// differ, whose shard set does not cover the plan exactly, whose
// manifest cells do not hash to their plan fingerprint, or whose records
// name cells outside the plan — merging files from different sweeps is
// an error, not a silent mix. Past the manifests the inputs are merged
// by MergeStreams over the plan the manifests carry, in O(inputs)
// memory; the merged output is byte-identical to what the unsharded run
// writes.
func MergeObservations(w io.Writer, shards ...io.Reader) error {
	if len(shards) == 0 {
		return fmt.Errorf("destset: no shard files to merge")
	}
	streams := make([]*mergeStream, len(shards))
	var head ShardManifest
	seen := make(map[int]bool, len(shards))
	for i, r := range shards {
		br := bufio.NewReaderSize(r, 64*1024)
		m, lines, err := readManifest(br)
		if err != nil {
			return fmt.Errorf("destset: shard input %d: %w", i, err)
		}
		streams[i] = &mergeStream{idx: i, br: br, line: lines}
		if i == 0 {
			head = m
		}
		if m.Plan != head.Plan {
			return fmt.Errorf("destset: shard input %d has plan fingerprint %s, input 0 has %s — refusing to merge different sweeps",
				i, m.Plan, head.Plan)
		}
		if m.Kind != head.Kind || m.Shards != head.Shards || len(m.Cells) != len(head.Cells) {
			return fmt.Errorf("destset: shard input %d manifest (kind %s, %d shards, %d cells) does not match input 0 (kind %s, %d shards, %d cells)",
				i, m.Kind, m.Shards, len(m.Cells), head.Kind, head.Shards, len(head.Cells))
		}
		if m.Shard < 0 || m.Shard >= m.Shards {
			return fmt.Errorf("destset: shard input %d claims shard %d of %d", i, m.Shard, m.Shards)
		}
		if seen[m.Shard] {
			return fmt.Errorf("destset: shard %d/%d supplied twice", m.Shard, m.Shards)
		}
		seen[m.Shard] = true
	}
	if len(seen) != head.Shards {
		missing := make([]int, 0, head.Shards-len(seen))
		for s := 0; s < head.Shards; s++ {
			if !seen[s] {
				missing = append(missing, s)
			}
		}
		return fmt.Errorf("destset: merge needs all %d shards of the plan; missing %v", head.Shards, missing)
	}
	plan, err := rebuildPlan(head.Kind, head.Plan, head.Cells)
	if err != nil {
		return err
	}
	return plan.mergeStreams(w, streams)
}
