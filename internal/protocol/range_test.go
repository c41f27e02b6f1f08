package protocol

import (
	"fmt"
	"testing"

	"destset/internal/coherence"
	"destset/internal/predictor"
	"destset/internal/trace"
)

// columnsOf lays a 16-node miss stream out as columns, the way a dataset
// records it. It panics if a miss's home is not the address interleave,
// which the columns cannot record, or if a miss does not read back
// unchanged.
func columnsOf(recs []trace.Record, infos []coherence.MissInfo) *coherence.Columns {
	c := &coherence.Columns{Nodes: 16}
	for i, r := range recs {
		mi := infos[i]
		c.Addr = append(c.Addr, r.Addr)
		c.PC = append(c.PC, r.PC)
		c.Sharers = append(c.Sharers, mi.Sharers)
		c.Gap = append(c.Gap, r.Gap)
		c.Req = append(c.Req, r.Requester)
		c.Kind = append(c.Kind, r.Kind)
		c.Owner = append(c.Owner, mi.Owner)
		c.ReqState = append(c.ReqState, mi.RequesterState)
		if gr, gm := c.At(i); gr != r || gm != mi {
			panic(fmt.Sprintf("miss %d reads back as %+v %+v, recorded %+v %+v", i, gr, gm, r, mi))
		}
	}
	return c
}

// TestProcessRangeMatchesProcess: ProcessRange gives every engine the
// Totals that Process on each miss gives, at the end of every chunk,
// with the first chunk as warm-up, and leaves the engine's own counters
// where Process leaves them. Snooping, Directory and multicast engines
// over the per-node banks take their range methods; PredictiveDirectory
// and an engine that hides its type take the Process fallback.
func TestProcessRangeMatchesProcess(t *testing.T) {
	recs, infos := stepStream()
	cols := columnsOf(recs, infos)
	bank := func(pol predictor.Policy) []predictor.Predictor {
		return predictor.NewBank(predictor.DefaultConfig(pol, 16))
	}
	engines := []struct {
		name   string
		ranged bool
		build  func() Engine
	}{
		{"snooping", true, func() Engine { return NewSnooping(16) }},
		{"directory", true, func() Engine { return NewDirectory() }},
		{"hidden-directory", false, func() Engine { return struct{ Engine }{NewDirectory()} }},
		{"predictive-directory", false, func() Engine { return NewPredictiveDirectory(bank(predictor.Owner)) }},
	}
	for _, pol := range []predictor.Policy{predictor.StickySpatial, predictor.Minimal, predictor.Broadcast, predictor.Oracle} {
		engines = append(engines, struct {
			name   string
			ranged bool
			build  func() Engine
		}{"multicast/" + pol.String(), true, func() Engine { return NewMulticast(bank(pol)) }})
	}
	for _, e := range engines {
		for _, chunk := range []int{1, 7, 2048} {
			eng, ref := e.build(), e.build()
			if _, ok := eng.(ranger); ok != e.ranged {
				t.Fatalf("%s: has a range method: %v, want %v", e.name, ok, e.ranged)
			}
			var got, want Totals
			for lo := 0; lo < len(recs); lo += chunk {
				hi := min(lo+chunk, len(recs))
				var acc *Totals
				if lo > 0 {
					acc = &got
				}
				ProcessRange(eng, cols, lo, hi, acc)
				for i := lo; i < hi; i++ {
					if r := ref.Process(recs[i], infos[i]); lo > 0 {
						want.Add(r)
					}
				}
				if got != want {
					t.Fatalf("%s, chunks of %d, after misses [%d, %d): range totals %+v, per-miss %+v", e.name, chunk, lo, hi, got, want)
				}
				var gs, ws any
				switch eng := eng.(type) {
				case *Multicast:
					gs, ws = eng.Stats(), ref.(*Multicast).Stats()
				case *PredictiveDirectory:
					gs, ws = eng.Stats(), ref.(*PredictiveDirectory).Stats()
				}
				if gs != ws {
					t.Fatalf("%s, chunks of %d, after misses [%d, %d): range stats %+v, per-miss %+v", e.name, chunk, lo, hi, gs, ws)
				}
			}
			if got.Misses != uint64(len(recs)-min(chunk, len(recs))) {
				t.Fatalf("%s, chunks of %d: %d misses accounted", e.name, chunk, got.Misses)
			}
		}
	}
}
