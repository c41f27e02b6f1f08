package sim

import (
	"context"
	"fmt"
	"sync"

	"destset/internal/coherence"
	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/trace"
)

// Job is what the timing runs of one warm and timed region pair share:
// the regions themselves and what the first run builds from them for
// every other. Warm-up is instantaneous (§5.2), so the coherence oracle
// state the warm region leaves behind is the same for every
// configuration of a dataset; only the predictor bank differs. The timed
// region's per-node program order is the same for every configuration
// too.
//
// The first run replays the warm region through its own oracle,
// recording each miss and the MissInfo it observed as columns
// (coherence.Columns), and trains its bank from the columns. A Job from
// NewJob is shared: that run also keeps a snapshot of its oracle and the
// columns, and every later run with the same coherence configuration
// restores the snapshot and trains from the recorded columns instead of
// replaying. The recorded values are what the build's own Apply calls
// returned, so a restored run equals a replayed one exactly. The first
// run to start lays out the timed streams, and every later run reads
// them. The warm replay and the timed layout are the only walks that
// read every record, so they are where a record the simulator cannot
// replay is refused (checkRecord). A Job is safe for concurrent use.
type Job struct {
	warm, timed Source // warm may be nil
	shared      bool

	mu    sync.Mutex
	built []*warmed

	layoutOnce sync.Once
	streams    *streams
	layoutErr  error
}

// warmed is a shared Job's warm-up for one coherence configuration.
// It is read-only once built.
type warmed struct {
	snap *coherence.Snapshot
	cols *coherence.Columns
}

// streams is a timed region laid out for replay: its records in trace
// order and each node's program order over them. It is read-only once
// built.
type streams struct {
	recs  []trace.Record
	nodes []stream
}

// stream is one node's program order over a timed region.
type stream struct {
	idx []int32  // trace index of each stream position
	pos []uint64 // cumulative instructions before each miss issues
}

// NewJob returns a Job over the warm (which may be nil) and timed
// regions that runs share: the first run builds what they share and the
// others read it. It holds a snapshot per coherence configuration and
// the timed streams until it is dropped.
func NewJob(warm, timed Source) *Job { return &Job{warm: warm, timed: timed, shared: true} }

// Nodes returns the node count of the system the job's regions traced.
func (j *Job) Nodes() int { return j.timed.Nodes() }

// warmUp brings coh, whatever it held, and the bank preds (nil when the
// run has no predictors) to their post-warm-up state. coh's writeback
// hook must be off.
func (j *Job) warmUp(ctx context.Context, coh *coherence.System, preds []predictor.Predictor) error {
	if j.warm == nil {
		coh.Reset()
		return nil
	}
	cols, err := j.replay(ctx, coh)
	if err != nil || preds == nil {
		return err
	}
	eng := protocol.NewMulticast(preds)
	n := len(cols.Addr)
	for lo := 0; lo < n; lo += ctxCheckStride {
		if err := ctx.Err(); err != nil {
			return err
		}
		protocol.ProcessRange(eng, cols, lo, min(lo+ctxCheckStride, n), nil)
	}
	return nil
}

// replay brings coh to the state the warm region leaves behind and
// returns the region's columns: a shared Job's snapshot restored, or,
// for the first run of a configuration, the region replayed.
func (j *Job) replay(ctx context.Context, coh *coherence.System) (*coherence.Columns, error) {
	j.mu.Lock()
	st := j.find(coh.Config())
	if st == nil {
		// Later runs of the same configuration wait here for the snapshot
		// rather than replay the region again.
		defer j.mu.Unlock()
		return j.build(ctx, coh)
	}
	j.mu.Unlock()
	coh.Restore(st.snap)
	return st.cols, nil
}

// find returns the warm-up built for cfg, or nil. The caller holds mu.
func (j *Job) find(cfg coherence.Config) *warmed {
	for _, st := range j.built {
		if st.snap.Config() == cfg {
			return st
		}
	}
	return nil
}

// build replays the warm region through coh, after resetting it, and
// records it as columns; a shared Job keeps them with coh's snapshot.
// The caller holds mu.
func (j *Job) build(ctx context.Context, coh *coherence.System) (*coherence.Columns, error) {
	coh.Reset()
	n := j.warm.Len()
	cols := coherence.NewColumns(coh.Nodes(), n)
	for i := 0; i < n; i++ {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rec := j.warm.Record(i)
		if err := checkRecord("warm", i, rec, coh.Nodes()); err != nil {
			return nil, err
		}
		cols.Set(i, rec, coh.Apply(rec))
	}
	if j.shared {
		j.built = append(j.built, &warmed{snap: coh.Snapshot(), cols: &cols})
	}
	return &cols, nil
}

// layout returns the timed region's streams, laying them out on first
// use, or why the region cannot be laid out.
func (j *Job) layout() (*streams, error) {
	j.layoutOnce.Do(func() { j.streams, j.layoutErr = newStreams(j.timed) })
	return j.streams, j.layoutErr
}

// newStreams lays out the timed region src: its records, read once in
// trace order and each checked, and each node's program-order stream
// into them.
func newStreams(src Source) (*streams, error) {
	st := &streams{recs: make([]trace.Record, src.Len()), nodes: make([]stream, src.Nodes())}
	for i := range st.recs {
		st.recs[i] = src.Record(i)
		if err := checkRecord("timed", i, st.recs[i], len(st.nodes)); err != nil {
			return nil, err
		}
		n := &st.nodes[st.recs[i].Requester]
		n.idx = append(n.idx, int32(i))
	}
	for k := range st.nodes {
		n := &st.nodes[k]
		n.pos = make([]uint64, len(n.idx))
		var cum uint64
		for p, gi := range n.idx {
			cum += uint64(st.recs[gi].Gap)
			n.pos[p] = cum
		}
	}
	return st, nil
}

// checkRecord reports why record i of a region cannot be replayed on a
// system of nodes nodes: its requester is not one of them, or its kind
// is neither GETS nor GETX. Datasets never hold such a record; a Source
// of the caller's own may.
func checkRecord(region string, i int, rec trace.Record, nodes int) error {
	switch {
	case int(rec.Requester) >= nodes:
		return fmt.Errorf("sim: %s record %d: requester %d outside %d nodes", region, i, rec.Requester, nodes)
	case rec.Kind != trace.GetShared && rec.Kind != trace.GetExclusive:
		return fmt.Errorf("sim: %s record %d: request kind %v is neither GETS nor GETX", region, i, rec.Kind)
	}
	return nil
}

// Shells is a free list of run shells: a run takes one and hands it back
// when it completes, so a sweep holds one shell per concurrently running
// cell instead of building one per cell. A shell is what a run mutates:
// its coherence oracle, event loop, crossbar links, transaction slab,
// message pool and latency histogram. A run resets the shell it takes;
// the oracle keeps its lines until the run's warm-up resets or restores
// it, and one of another coherence configuration is replaced. A shell
// on the free list holds no predictor bank: each run gets its own from
// NewBank, which may be one an earlier run recycled (put). A run that
// fails or is cancelled drops its shell, which may still hold queued
// events and messages in flight. The zero value is empty and ready; it
// is safe for concurrent use.
type Shells struct {
	mu   sync.Mutex
	free []*sim
}

// get returns a shell reset for a run of cfg: a free one, or a new one
// when none is free. A nil free list always builds a new one.
func (f *Shells) get(cfg Config) *sim {
	if f != nil {
		f.mu.Lock()
		if n := len(f.free); n > 0 {
			s := f.free[n-1]
			f.free = f.free[:n-1]
			f.mu.Unlock()
			s.reset(cfg)
			return s
		}
		f.mu.Unlock()
	}
	return newSim(cfg)
}

// put returns the shell of a completed run to the free list. Either way
// the shell lets go of its predictor bank, and a bank it built with
// predictor.NewBank goes back to predictor's free list
// (predictor.Recycle), since the run was its only user; a bank from
// Config.NewBank is the caller's and is only dropped. A nil free list
// drops the shell and hands its oracle to coherence.Recycle, so the next
// one-call run of that configuration reuses the oracle's storage.
func (f *Shells) put(s *sim) {
	if s.cfg.NewBank == nil {
		predictor.Recycle(s.preds)
	}
	s.preds, s.oracles = nil, nil
	if f == nil {
		coherence.Recycle(s.coh)
		s.coh = nil
		return
	}
	f.mu.Lock()
	f.free = append(f.free, s)
	f.mu.Unlock()
}
