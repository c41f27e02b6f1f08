package destset_test

import (
	"context"
	"strings"
	"testing"

	"destset"
)

func TestWorkloadsList(t *testing.T) {
	ws := destset.Workloads()
	have := make(map[string]bool, len(ws))
	for _, w := range ws {
		have[w] = true
	}
	// Other tests may register extra presets in this binary; the six
	// paper benchmarks must always be present.
	for _, w := range []string{"apache", "barnes-hut", "ocean", "oltp", "slashcode", "specjbb"} {
		if !have[w] {
			t.Errorf("Workloads() = %v, missing %q", ws, w)
		}
	}
}

func TestNewWorkloadAndGenerator(t *testing.T) {
	p, err := destset.NewWorkload("apache", 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := destset.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	rec, mi := g.Next()
	if int(rec.Requester) >= p.Nodes {
		t.Errorf("requester %d out of range", rec.Requester)
	}
	if mi.Home != g.System().Home(rec.Addr) {
		t.Error("annotation home mismatch")
	}
	if _, err := destset.NewWorkload("nosuch", 1); err == nil {
		t.Error("unknown workload should error")
	}
}

func TestPredictorFacade(t *testing.T) {
	cfg := destset.DefaultPredictorConfig(destset.Owner, 16)
	p := destset.NewPredictor(cfg)
	got := p.Predict(destset.Query{Addr: 5, Requester: 3, Home: 7, Kind: destset.GetShared})
	if !got.Contains(3) || !got.Contains(7) {
		t.Errorf("prediction %v missing minimal set", got)
	}
	bank := destset.NewPredictorBank(cfg)
	if len(bank) != 16 {
		t.Errorf("bank size %d", len(bank))
	}
}

func TestEvaluatePolicyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end evaluation")
	}
	snoop, err := destset.EvaluatePolicy("slashcode", destset.Broadcast, 1, 20000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := destset.EvaluatePolicy("slashcode", destset.Minimal, 1, 20000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	owner, err := destset.EvaluatePolicy("slashcode", destset.Owner, 1, 20000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if snoop.RequestMsgsPerMiss != 15 || snoop.IndirectionPercent != 0 {
		t.Errorf("snooping point wrong: %+v", snoop)
	}
	if owner.IndirectionPercent >= dir.IndirectionPercent {
		t.Errorf("Owner (%.1f%%) should reduce indirections vs directory (%.1f%%)",
			owner.IndirectionPercent, dir.IndirectionPercent)
	}
	if owner.RequestMsgsPerMiss >= snoop.RequestMsgsPerMiss {
		t.Errorf("Owner traffic %.2f should be below snooping", owner.RequestMsgsPerMiss)
	}
}

func TestPredictiveDirectoryFacade(t *testing.T) {
	p, _ := destset.NewWorkload("oltp", 2)
	p.SharedUnits = 200
	p.StreamBlocksPerNode = 4096
	g, err := destset.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	bank := destset.NewPredictorBank(destset.DefaultPredictorConfig(destset.Owner, 16))
	eng := destset.NewPredictiveDirectoryEngine(bank)
	var tot destset.Totals
	for i := 0; i < 10000; i++ {
		rec, mi := g.Next()
		res := eng.Process(rec, mi)
		if i >= 5000 {
			tot.Add(res)
		}
	}
	if tot.Misses != 5000 {
		t.Fatalf("misses = %d", tot.Misses)
	}
	if tot.IndirectionPercent() <= 0 || tot.IndirectionPercent() >= 60 {
		t.Errorf("indirections = %.1f%%, want a reduced but non-zero fraction", tot.IndirectionPercent())
	}
}

func TestSimulateTimingFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("timing simulation")
	}
	p, _ := destset.NewWorkload("ocean", 3)
	p.SharedUnits = 200
	p.StreamBlocksPerNode = 4096
	g, err := destset.NewGenerator(p)
	if err != nil {
		t.Fatal(err)
	}
	warm, timed := &simRecords{nodes: p.Nodes}, &simRecords{nodes: p.Nodes}
	for _, tr := range []*simRecords{warm, timed} {
		for i := 0; i < 3000; i++ {
			rec, _ := g.Next()
			tr.recs = append(tr.recs, rec)
		}
	}
	res, err := destset.SimulateTiming(context.Background(), destset.DefaultSimConfig(destset.SimSnooping), warm, timed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Misses != 3000 || res.RuntimeNs <= 0 {
		t.Errorf("timing result %+v", res)
	}
}

// TestSimulateTimingRefusesMalformedRecords: records of the caller's own
// are checked as the simulator reads them. A requester outside the
// system, or a kind other than GETS and GETX, in either source is an
// error naming the source's region and the record, not a panic.
func TestSimulateTimingRefusesMalformedRecords(t *testing.T) {
	cfg := destset.DefaultSimConfig(destset.SimSnooping)
	good := []destset.Record{
		{Addr: 32, Requester: 1, Kind: destset.GetShared, Gap: 10},
		{Addr: 48, Requester: 2, Kind: destset.GetExclusive, Gap: 10},
	}
	bad := map[string]destset.Record{
		"requester 200": {Addr: 64, Requester: 200, Kind: destset.GetShared},
		"kind 7":        {Addr: 64, Requester: 3, Kind: 7},
	}
	for name, rec := range bad {
		for _, region := range []string{"warm", "timed"} {
			warm := &simRecords{nodes: cfg.Nodes, recs: append([]destset.Record(nil), good...)}
			timed := &simRecords{nodes: cfg.Nodes, recs: append([]destset.Record(nil), good...)}
			into := timed
			if region == "warm" {
				into = warm
			}
			into.recs = append(into.recs, rec)
			_, err := destset.SimulateTiming(context.Background(), cfg, warm, timed)
			if want := region + " record 2"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s in the %s source: err = %v, want an error naming %q", name, region, err, want)
			}
		}
	}
}
