package predictor

import "testing"

// wrapped hides a member's concrete type, as a registered custom policy
// that wraps a built-in one does.
type wrapped struct{ Predictor }

// TestStepOfOnlyWholeTableBanks: StepOf finds the bank step exactly for
// a bank NewBank built with a finite table policy, whole and in node
// order; every other bank takes the per-node path.
func TestStepOfOnlyWholeTableBanks(t *testing.T) {
	for _, pol := range []Policy{Owner, BroadcastIfShared, Group, OwnerGroup} {
		cfg := DefaultConfig(pol, 16)
		bank := NewBank(cfg)
		if StepOf(bank) == nil {
			t.Errorf("%v: a NewBank bank has no step", pol)
		}
		standalone := make([]Predictor, 16)
		for i := range standalone {
			standalone[i] = New(cfg)
		}
		swapped := append([]Predictor(nil), bank...)
		swapped[2], swapped[3] = swapped[3], swapped[2]
		replaced := NewBank(cfg)
		replaced[5] = bank[5]
		hidden := append([]Predictor(nil), bank...)
		hidden[0] = wrapped{bank[0]}
		unbounded := cfg
		unbounded.Entries = 0
		for name, preds := range map[string][]Predictor{
			"standalone tables":  standalone,
			"members swapped":    swapped,
			"a member replaced":  replaced,
			"a member hidden":    hidden,
			"part of a bank":     bank[:8],
			"an unbounded table": NewBank(unbounded),
		} {
			if StepOf(preds) != nil {
				t.Errorf("%v: %s takes the step", pol, name)
			}
		}
	}
	for _, pol := range []Policy{StickySpatial, Minimal, Broadcast, Oracle} {
		if StepOf(NewBank(DefaultConfig(pol, 16))) != nil {
			t.Errorf("%v takes the step", pol)
		}
	}
	if StepOf(nil) != nil {
		t.Error("an empty bank takes the step")
	}
}
