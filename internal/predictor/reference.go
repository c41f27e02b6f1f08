package predictor

import "destset/internal/nodeset"

// minimalPredictor always predicts the minimal set. Under multicast
// snooping it makes every shared miss retry, bounding the bandwidth floor;
// it corresponds to a directory protocol's initial request.
type minimalPredictor struct{}

func (minimalPredictor) Predict(q Query) nodeset.Set { return q.MinimalSet() }
func (minimalPredictor) TrainResponse(Response)      {}
func (minimalPredictor) TrainRequest(External)       {}
func (minimalPredictor) TrainRetry(Retry)            {}
func (minimalPredictor) Name() string                { return "Minimal" }

// broadcastPredictor always predicts all nodes, degenerating multicast
// snooping into broadcast snooping.
type broadcastPredictor struct {
	nodes int
}

func (p broadcastPredictor) Predict(Query) nodeset.Set { return nodeset.All(p.nodes) }
func (broadcastPredictor) TrainResponse(Response)      {}
func (broadcastPredictor) TrainRequest(External)       {}
func (broadcastPredictor) TrainRetry(Retry)            {}
func (broadcastPredictor) Name() string                { return "Broadcast" }

// oraclePredictor predicts exactly the needed destination set, which the
// harness supplies before each Predict call. It bounds how well any
// realizable predictor could do (perfect accuracy at minimal bandwidth).
type oraclePredictor struct {
	needed nodeset.Set
}

// SetOracle primes the next prediction with the true needed set.
func (p *oraclePredictor) SetOracle(needed nodeset.Set) { p.needed = needed }

func (p *oraclePredictor) Predict(q Query) nodeset.Set {
	return p.needed.Union(q.MinimalSet())
}
func (*oraclePredictor) TrainResponse(Response) {}
func (*oraclePredictor) TrainRequest(External)  {}
func (*oraclePredictor) TrainRetry(Retry)       {}
func (*oraclePredictor) Name() string           { return "Oracle" }

// OracleSetter is implemented by predictors that need the true destination
// set supplied before prediction (the Oracle reference policy).
type OracleSetter interface {
	SetOracle(needed nodeset.Set)
}

// OracleSetters returns each bank member's OracleSetter, indexed by
// node, or nil when no member is one. A caller that primes the oracle on
// every miss decides it once per bank this way instead of asserting the
// interface on every miss.
func OracleSetters(preds []Predictor) []OracleSetter {
	var out []OracleSetter
	for i, p := range preds {
		if o, ok := p.(OracleSetter); ok {
			if out == nil {
				out = make([]OracleSetter, len(preds))
			}
			out[i] = o
		}
	}
	return out
}
