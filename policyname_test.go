package destset

import (
	"context"
	"testing"

	"destset/internal/predictor"
)

// TestBuiltinPolicyNameBuildsOneBank: a built-in policy given by name
// builds the bank its value builds, NewBank's set-major bank, which takes
// the multicast engine's bank step, and gives identical Totals; a timing
// spec leaves the bank to the simulator's own NewBank.
func TestBuiltinPolicyNameBuildsOneBank(t *testing.T) {
	byName := EngineSpec{Protocol: ProtocolMulticast, PolicyName: "group", Label: "by-name"}
	byValue := EngineSpec{Protocol: ProtocolMulticast, Policy: Group, UsePolicy: true, Label: "by-value"}
	newBank, builtin, err := byName.bankFactory(16)
	if err != nil {
		t.Fatal(err)
	}
	if !builtin || predictor.StepOf(newBank()) == nil {
		t.Error(`EngineSpec{PolicyName: "group"} builds a bank without the bank step`)
	}
	res, err := NewRunner([]EngineSpec{byName, byValue},
		[]WorkloadSpec{{Name: "oltp", Warm: 4_000, Measure: 4_000}},
		WithSeeds(1)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Totals != res[1].Totals {
		t.Errorf("by name and by value differ: %+v", res)
	}
	cfg, err := SimSpec{Protocol: ProtocolMulticast, PolicyName: "Owner-Group"}.Resolve(16)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NewBank != nil || cfg.Predictor.Policy != OwnerGroup {
		t.Errorf("SimSpec by name: NewBank set %v, policy %v; want the simulator's NewBank of OwnerGroup",
			cfg.NewBank != nil, cfg.Predictor.Policy)
	}
}
