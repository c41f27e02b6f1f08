package protocol

import (
	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/trace"
)

// PredictiveDirectory is the alternative hybrid the paper cites (§1, §6):
// Acacio et al.'s owner prediction layered on a conventional directory
// protocol. Alongside the normal request to the home node, the requester
// sends the request directly to its predicted owner; when the prediction
// is right, the owner responds immediately and the miss completes in two
// hops instead of three. The directory still serializes and validates
// every transaction, so a wrong prediction costs only the wasted direct
// message — the request falls back to the ordinary 3-hop path.
//
// Compared with multicast snooping, this converts 3-hop misses to 2-hop
// (never to snoop-fast transfers) but needs no totally-ordered multicast
// and never retries. It is implemented here as the extension experiment
// comparing the two hybrid styles on equal workloads.
type PredictiveDirectory struct {
	preds []predictor.Predictor
	stats PredictiveDirectoryStats
}

// PredictiveDirectoryStats counts prediction outcomes.
type PredictiveDirectoryStats struct {
	// Correct counts misses whose predicted node was the true owner.
	Correct uint64
	// Wrong counts mispredictions (the direct message was wasted).
	Wrong uint64
	// NoPrediction counts misses where the predictor offered nothing
	// beyond the minimal set.
	NoPrediction uint64
}

// NewPredictiveDirectory builds the engine over a bank of per-node
// predictors. Owner-style predictors match Acacio et al.'s design; any
// policy works (the lowest-numbered predicted node beyond the minimal set
// is used as the owner guess).
func NewPredictiveDirectory(preds []predictor.Predictor) *PredictiveDirectory {
	if len(preds) == 0 {
		panic("protocol: predictive directory needs at least one predictor")
	}
	return &PredictiveDirectory{preds: preds}
}

// Name implements Engine.
func (p *PredictiveDirectory) Name() string {
	return "PredictiveDirectory+" + p.preds[0].Name()
}

// Stats returns prediction-outcome counters.
func (p *PredictiveDirectory) Stats() PredictiveDirectoryStats { return p.stats }

// Process implements Engine.
func (p *PredictiveDirectory) Process(rec trace.Record, mi coherence.MissInfo) Result {
	req := nodeset.NodeID(rec.Requester)
	q := predictor.Query{
		Addr:      rec.Addr,
		PC:        rec.PC,
		Requester: req,
		Home:      mi.Home,
		Kind:      rec.Kind,
	}
	guessSet := p.preds[req].Predict(q).Minus(q.MinimalSet())

	// Start from the plain directory transaction.
	msgs := 1 // request to home
	indirect := mi.DirIndirection(req)
	if rec.Kind == trace.GetExclusive {
		msgs += mi.Sharers.Remove(req).Remove(mi.Owner).Count()
	}

	haveGuess := !guessSet.Empty()
	var guess nodeset.NodeID
	if haveGuess {
		guess = guessSet.First()
		msgs++ // the speculative direct request
	}
	switch {
	case !haveGuess:
		p.stats.NoPrediction++
		if mi.CacheToCache(req) {
			msgs++ // ordinary forward from home to the owner
		}
	case mi.CacheToCache(req) && guess == mi.Owner:
		// 2-hop hit: the owner responds directly; it also notifies the
		// home so the directory state stays exact (one control message).
		p.stats.Correct++
		indirect = false
		msgs++ // owner -> home ownership notification
	default:
		// Wasted speculation; the home forwards as usual.
		p.stats.Wrong++
		if mi.CacheToCache(req) {
			msgs++
		}
	}

	// Training mirrors the multicast engine: the home and any node that
	// received a message observes the request; the requester sees the
	// data response.
	ext := predictor.External{Addr: rec.Addr, PC: rec.PC, Requester: req, Kind: rec.Kind}
	observers := mi.Needed(req, rec.Kind)
	if haveGuess {
		observers = observers.Add(guess)
	}
	for rem := observers.Remove(req); !rem.Empty(); {
		n := rem.First()
		rem = rem.Remove(n)
		p.preds[n].TrainRequest(ext)
	}
	if responder, fromMemory, none := mi.Responder(req); !none {
		p.preds[req].TrainResponse(predictor.Response{
			Addr:       rec.Addr,
			PC:         rec.PC,
			Responder:  responder,
			FromMemory: fromMemory,
		})
	}

	return Result{
		RequestMsgs: msgs,
		DataMsgs:    dataMsgs(req, mi.Owner),
		Indirect:    indirect,
		InitialSet:  coherence.MinimalSet(req, mi.Home).Union(guessSet),
	}
}
