package destset_test

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"destset"
)

// pinnedDefs are one trace and one timing sweep whose plan fingerprints
// TestPlanFingerprintsArePinned holds: Name and Params workloads,
// default, explicit and negative scales, two seeds, an observation
// interval and a predictor override.
func pinnedDefs(t *testing.T) (trace, timing destset.SweepDef) {
	t.Helper()
	params, err := destset.NewWorkload("ocean", 0)
	if err != nil {
		t.Fatal(err)
	}
	params.Name = "ocean-params"
	pc := destset.DefaultPredictorConfig(destset.Group, 0)
	pc.Entries = 4096
	workloads := []destset.WorkloadSpec{
		{Name: "oltp"},
		{Name: "apache", Warm: 3000, Measure: 2000},
		{Params: &params, Warm: -1, Measure: 1500},
	}
	opts := []destset.RunnerOption{
		destset.WithSeeds(1, 2), destset.WithWarmup(4000), destset.WithMeasure(4000), destset.WithInterval(500),
	}
	trace = destset.NewTraceSweepDef([]destset.EngineSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
		destset.SpecForPolicy(destset.Owner),
		{Protocol: destset.ProtocolMulticast, Predictor: &pc, Label: "group-4096"},
		{Protocol: destset.ProtocolPredictiveDirectory, PolicyName: "owner"},
	}, workloads, opts...)
	timing = destset.NewTimingSweepDef([]destset.SimSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory, CPU: destset.DetailedCPU},
		{Protocol: destset.ProtocolMulticast, Predictor: &pc, LinkBytesPerNs: 5, MSHRs: 4, Label: "group-4096"},
		{Protocol: destset.ProtocolMulticast, PolicyName: "owner"},
	}, workloads, opts...)
	return trace, timing
}

// TestPlanFingerprintsArePinned: plan and cell fingerprints address
// result-store records and name a coordinator's state dir, so a sweep
// must fingerprint the same in every version of the code, through a
// runner and through its def's JSON alike. The literals were recorded
// when the specs still carried node-count overrides.
func TestPlanFingerprintsArePinned(t *testing.T) {
	traceDef, timingDef := pinnedDefs(t)
	for _, c := range []struct {
		def               destset.SweepDef
		plan, first, last string
		cells             int
	}{
		{traceDef, "46b8b6326e2dcc7ccd225ebcd835825c", "713440e7a28a23c988961b3357b9a6bf", "c45a24d6db735c7410da1a1f717bdae0", 30},
		{timingDef, "06cdaf606f570806bfe3d77b83c16452", "dd0be9911c33b4add004bca091e4a784", "c2c54d1ed9ad671d0d8b5ac9750ec66b", 24},
	} {
		raw, err := json.Marshal(c.def)
		if err != nil {
			t.Fatal(err)
		}
		var back destset.SweepDef
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		for _, def := range []destset.SweepDef{c.def, back} {
			p, err := def.Plan()
			if err != nil {
				t.Fatal(err)
			}
			if p.Len() != c.cells || p.Fingerprint() != c.plan ||
				p.Cell(0).Fingerprint != c.first || p.Cell(p.Len()-1).Fingerprint != c.last {
				t.Errorf("%s plan: %d cells, fingerprint %s, first cell %s, last cell %s; want %d, %s, %s, %s",
					def.Kind, p.Len(), p.Fingerprint(), p.Cell(0).Fingerprint, p.Cell(p.Len()-1).Fingerprint,
					c.cells, c.plan, c.first, c.last)
			}
		}
	}
}

// TestDefNodesComeFromTheWorkload: a def document whose engine, sim and
// workload specs carry a node count, or whose workload carries an Open
// field, as documents once could, decodes with those keys ignored. It
// validates, plans and runs on oltp's 16 nodes exactly as the same
// document without them, so snooping sends 15 requests per miss.
func TestDefNodesComeFromTheWorkload(t *testing.T) {
	const open = `,"Open":{"fn":"0xdeadbeef"}`
	for _, doc := range []string{
		`{"kind":"trace","engines":[{"Protocol":"snooping","Nodes":8},{"Protocol":"multicast","PolicyName":"owner","Nodes":8}],` +
			`"workloads":[{"Name":"oltp","Nodes":8,"Warm":500,"Measure":500}],"interval":250}`,
		`{"kind":"timing","sims":[{"Protocol":"snooping","Nodes":8},{"Protocol":"multicast","PolicyName":"owner","Nodes":8}],` +
			`"workloads":[{"Name":"oltp","Nodes":8,"Warm":500,"Measure":500` + open + `}]}`,
	} {
		run := func(doc string) (string, any) {
			t.Helper()
			var def destset.SweepDef
			if err := json.Unmarshal([]byte(doc), &def); err != nil {
				t.Fatal(err)
			}
			plan, err := def.Plan()
			if err != nil {
				t.Fatal(err)
			}
			if def.Kind == destset.PlanKindTiming {
				r, err := def.TimingRunner()
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if got := res[0].Result.Misses; got != 500 {
					t.Errorf("timing: %d misses measured, want 500", got)
				}
				return plan.Fingerprint(), res
			}
			r, err := def.Runner()
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if tot := res[0].Totals; tot.RequestMsgs != 15*tot.Misses {
				t.Errorf("trace: snooping sent %d requests for %d misses, want 15 per miss", tot.RequestMsgs, tot.Misses)
			}
			return plan.Fingerprint(), res
		}
		fp, got := run(doc)
		wantFP, want := run(strings.ReplaceAll(strings.ReplaceAll(doc, `,"Nodes":8`, ""), open, ""))
		if fp != wantFP {
			t.Errorf("plan %s, the same def without node counts %s", fp, wantFP)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("results differ from the same def without node counts:\n%+v\nvs\n%+v", got, want)
		}
	}
}
