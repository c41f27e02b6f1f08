package sim

import (
	"destset/internal/trace"
)

// Source is the read-only record view the timing simulator replays: a
// random-access cursor over an annotated trace region. It deliberately
// exposes records only — the simulator evolves its own live coherence
// state, because the multicast protocol samples that state at
// interconnect ordering time (the window of vulnerability, §4.1), an
// order that differs from trace order.
//
// dataset.Region implements Source over the shared columnar store, so
// timing runs replay datasets zero-copy. A caller that holds records of
// its own implements the three methods over them.
type Source interface {
	// Nodes is the traced system's node count.
	Nodes() int
	// Len is the number of records.
	Len() int
	// Record returns record i in trace (global program) order.
	Record(i int) trace.Record
}
