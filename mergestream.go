package destset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Streaming observation merge. Every JSONL stream the system writes —
// a -json file, a shard file, a worker upload, a coordinator spill — is
// plan-ordered, because the runners deliver observations in plan order
// at any parallelism. Merging streams is therefore a k-way merge over
// the streams' current cells: residency is O(streams), never
// O(records), and the output is one merged manifest followed by every
// record in plan order, records of one cell keeping their input order.

// RecordIndex returns the function that attributes a raw JSONL
// observation record to its plan cell index, by the (label, workload,
// seed) the record names: Engine for trace records, Sim for timing
// ones. It fails when two plan cells share those coordinates, since
// their records could not be told apart. MergeStreams and the
// distributed coordinator attribute records through it.
func (p *SweepPlan) RecordIndex() (func(raw []byte) (int, error), error) {
	type key struct {
		label, workload string
		seed            uint64
	}
	cells := make(map[key]int, p.Len())
	for i, c := range p.Cells() {
		k := key{c.Engine, c.Workload, c.Seed}
		if _, dup := cells[k]; dup {
			return nil, fmt.Errorf("destset: plan has two cells labeled (%s, %s, seed %d); records cannot be attributed — give the specs distinct labels",
				c.Engine, c.Workload, c.Seed)
		}
		cells[k] = i
	}
	timing := p.kind == PlanKindTiming
	return func(raw []byte) (int, error) {
		var r struct {
			Engine, Sim, Workload string
			Seed                  uint64
		}
		if err := json.Unmarshal(raw, &r); err != nil {
			return 0, err
		}
		label := r.Engine
		if timing {
			label = r.Sim
		}
		i, ok := cells[key{label, r.Workload, r.Seed}]
		if !ok {
			return 0, fmt.Errorf("record names cell (%s, %s, seed %d) not in the plan", label, r.Workload, r.Seed)
		}
		return i, nil
	}, nil
}

// mergeStream is one input's read cursor: the current record and the
// plan index of the cell it belongs to.
type mergeStream struct {
	idx  int // input ordinal, for error messages
	br   *bufio.Reader
	line int
	cell int    // current record's plan cell index
	raw  []byte // current record, verbatim (no trailing newline)
	done bool
}

// advance reads the stream's next observation record, skipping blank
// lines and manifest records, and attributes it to a plan cell. At end
// of stream it sets done.
func (s *mergeStream) advance(cellOf func([]byte) (int, error)) error {
	for {
		raw, err := s.br.ReadBytes('\n')
		if len(raw) > 0 {
			s.line++
			raw = bytes.TrimSuffix(raw, []byte("\n"))
			raw = bytes.TrimSuffix(raw, []byte("\r"))
			if len(raw) > 0 && !isManifest(raw) {
				ci, cerr := cellOf(raw)
				if cerr != nil {
					return fmt.Errorf("destset: merge input %d line %d: %w", s.idx, s.line, cerr)
				}
				if ci < s.cell {
					return fmt.Errorf("destset: merge input %d line %d: cell %d after cell %d — stream is not in plan order",
						s.idx, s.line, ci, s.cell)
				}
				s.cell, s.raw = ci, append(s.raw[:0], raw...)
				return nil
			}
		}
		if err == io.EOF {
			s.done = true
			return nil
		}
		if err != nil {
			return fmt.Errorf("destset: merge input %d: %w", s.idx, err)
		}
	}
}

// streamHeap is a min-heap of streams keyed by current cell index; ties
// broken by input ordinal so the pop order is deterministic.
type streamHeap []*mergeStream

func (h streamHeap) less(i, j int) bool {
	if h[i].cell != h[j].cell {
		return h[i].cell < h[j].cell
	}
	return h[i].idx < h[j].idx
}

func (h streamHeap) down(i int) {
	for {
		l, r, min := 2*i+1, 2*i+2, i
		if l < len(h) && h.less(l, min) {
			min = l
		}
		if r < len(h) && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// MergeStreams merges plan-ordered JSONL observation record streams into
// the full-run observation file on w: one merged manifest (shard 0 of 1)
// followed by every input record, verbatim, in the plan's cell order —
// byte-identical to the unsharded run's -json output. It never
// materializes the inputs: each stream is read once, front to back, and
// only one record per stream is resident, so arbitrarily large sweeps
// merge in O(streams) memory.
//
// Each input must carry records whose plan cell indices are
// non-decreasing (records of one cell stay consecutive and in their
// original order), one cell must not span two inputs, and the inputs
// together must cover every plan cell — holes, duplicates, out-of-order
// records and cells foreign to the plan are refused. Manifest records
// and blank lines in the inputs are skipped.
func (p *SweepPlan) MergeStreams(w io.Writer, parts ...io.Reader) error {
	streams := make([]*mergeStream, len(parts))
	for i, r := range parts {
		streams[i] = &mergeStream{idx: i, br: bufio.NewReaderSize(r, 64*1024)}
	}
	return p.mergeStreams(w, streams)
}

// mergeStreams is MergeStreams over opened cursors; a cursor's line
// count starts at the lines already consumed from its input.
func (p *SweepPlan) mergeStreams(w io.Writer, streams []*mergeStream) error {
	if len(streams) == 0 {
		return fmt.Errorf("destset: no streams to merge")
	}
	cellOf, err := p.RecordIndex()
	if err != nil {
		return err
	}
	heap := make(streamHeap, 0, len(streams))
	for _, s := range streams {
		if err := s.advance(cellOf); err != nil {
			return err
		}
		if !s.done {
			heap = append(heap, s)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		heap.down(i)
	}

	bw := bufio.NewWriter(w)
	manifest, err := json.Marshal(p.Manifest(0, 1))
	if err != nil {
		return fmt.Errorf("destset: encoding merged manifest: %w", err)
	}
	bw.Write(manifest)
	bw.WriteByte('\n')

	// ownedBy[i] is the input that emitted cell i's records (-1: none
	// yet). A second input arriving at an already-owned cell is a
	// duplicate; a gap behind the global cursor is a hole.
	planCells := p.Cells()
	ownedBy := make([]int, len(planCells))
	for i := range ownedBy {
		ownedBy[i] = -1
	}
	next := 0 // the plan cell the merge expects next
	for len(heap) > 0 {
		s := heap[0]
		if ownedBy[s.cell] >= 0 {
			c := planCells[s.cell]
			return fmt.Errorf("destset: cell %d (%s, %s, seed %d) appears in merge inputs %d and %d — one cell must not span streams",
				s.cell, c.Engine, c.Workload, c.Seed, ownedBy[s.cell], s.idx)
		}
		if s.cell > next {
			// Every input's next record is past cell next: either no
			// input holds it, or one holds it behind a later cell.
			c := planCells[next]
			return fmt.Errorf("destset: cell %d (%s, %s, seed %d) has no records where the plan expects them — missing from every input (interrupted run?), or an input holding it is not in plan order",
				next, c.Engine, c.Workload, c.Seed)
		}
		// Emit every record of this cell from this stream; they are
		// consecutive by the non-decreasing invariant.
		ci := s.cell
		ownedBy[ci] = s.idx
		next = ci + 1
		for !s.done && s.cell == ci {
			bw.Write(s.raw)
			bw.WriteByte('\n')
			if err := s.advance(cellOf); err != nil {
				return err
			}
		}
		if s.done {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		if len(heap) > 0 {
			heap.down(0)
		}
	}
	if next != len(planCells) {
		c := planCells[next]
		return fmt.Errorf("destset: cell %d (%s, %s, seed %d) has no records — incomplete stream set (interrupted run?)",
			next, c.Engine, c.Workload, c.Seed)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("destset: writing merged observations: %w", err)
	}
	return nil
}
