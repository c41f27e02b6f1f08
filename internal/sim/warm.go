package sim

import (
	"context"
	"sync"

	"destset/internal/coherence"
	"destset/internal/predictor"
	"destset/internal/protocol"
)

// Warmup is one warm region's contribution to a run (§5.2): the coherence
// oracle state the region leaves behind and the MissInfo each of its
// misses observed. Warm-up is instantaneous, so that state is the same
// for every configuration of a dataset; only the predictor bank differs,
// and each run trains its own from the MissInfo.
//
// The first run to need a Warmup replays the region through its own
// oracle and trains its bank as it goes. A Warmup from NewWarmup is
// shared: that run also keeps a snapshot of its oracle and the MissInfo
// it recorded, and every later run with the same coherence
// configuration restores the snapshot and trains from the recorded
// MissInfo instead of replaying. The recorded values are what the
// snapshot build's own Apply calls returned, so a restored run equals a
// replayed one exactly. A Warmup is safe for concurrent use.
type Warmup struct {
	src    Source
	shared bool

	mu    sync.Mutex
	built []*warmed
}

// warmed is a shared Warmup's state for one coherence configuration.
// It is read-only once built.
type warmed struct {
	snap  *coherence.Snapshot
	infos []coherence.MissInfo
}

// NewWarmup returns a Warmup over src that runs share: the first run
// builds it and the others restore it. It holds a snapshot per coherence
// configuration until it is dropped.
func NewWarmup(src Source) *Warmup { return &Warmup{src: src, shared: true} }

// apply brings coh, whatever it held, and the bank preds (nil when the
// run has no predictors) to their post-warm-up state. coh's writeback
// hook must be off.
func (w *Warmup) apply(ctx context.Context, coh *coherence.System, preds []predictor.Predictor) error {
	var eng protocol.Engine
	if preds != nil {
		eng = protocol.NewMulticast(preds)
	}
	w.mu.Lock()
	st := w.find(coh.Config())
	if st == nil {
		// Later runs of the same configuration wait here for the snapshot
		// rather than replay the region again.
		defer w.mu.Unlock()
		return w.build(ctx, coh, eng)
	}
	w.mu.Unlock()
	coh.Restore(st.snap)
	if eng == nil {
		return nil
	}
	for i, mi := range st.infos {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		eng.Process(w.src.Record(i), mi)
	}
	return nil
}

// find returns the state built for cfg, or nil. The caller holds mu.
func (w *Warmup) find(cfg coherence.Config) *warmed {
	for _, st := range w.built {
		if st.snap.Config() == cfg {
			return st
		}
	}
	return nil
}

// build replays the region through coh, after resetting it, training
// eng (when non-nil) with each miss's MissInfo, and, for a shared Warmup,
// keeps coh's snapshot and the MissInfo. The caller holds mu.
func (w *Warmup) build(ctx context.Context, coh *coherence.System, eng protocol.Engine) error {
	coh.Reset()
	n := w.src.Len()
	var infos []coherence.MissInfo
	if w.shared {
		infos = make([]coherence.MissInfo, n)
	}
	for i := 0; i < n; i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		rec := w.src.Record(i)
		mi := coh.Apply(rec)
		if eng != nil {
			eng.Process(rec, mi)
		}
		if infos != nil {
			infos[i] = mi
		}
	}
	if w.shared {
		w.built = append(w.built, &warmed{snap: coh.Snapshot(), infos: infos})
	}
	return nil
}

// Oracles is a free list of coherence oracles: a run takes one and hands
// it back when it returns, so a sweep holds one oracle per concurrently
// running cell instead of building one per cell. A returned oracle keeps
// its state until the next run resets or restores it, so its lines are
// cleared once per run. The zero value is empty and ready; it is safe
// for concurrent use.
type Oracles struct {
	mu   sync.Mutex
	free []*coherence.System
}

// get returns an oracle of configuration cfg, in any state, with no
// writeback hook: a free one, or a new one when none is free or the free
// one has another configuration (it is dropped, so the list never holds
// more oracles than there were concurrent runs). A nil free list always
// builds a new one.
func (o *Oracles) get(cfg coherence.Config) *coherence.System {
	if o != nil {
		o.mu.Lock()
		var s *coherence.System
		if n := len(o.free); n > 0 {
			s = o.free[n-1]
			o.free = o.free[:n-1]
		}
		o.mu.Unlock()
		if s != nil && s.Config() == cfg {
			return s
		}
	}
	return coherence.NewSystem(cfg)
}

// put unhooks s and returns it to the free list; a nil free list drops
// it.
func (o *Oracles) put(s *coherence.System) {
	if o == nil {
		return
	}
	s.OnWriteback = nil
	o.mu.Lock()
	o.free = append(o.free, s)
	o.mu.Unlock()
}
