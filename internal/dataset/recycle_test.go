package dataset

import (
	"bytes"
	"runtime"
	"testing"

	"destset/internal/cache"
	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/trace"
	"destset/internal/workload"
)

// oracleConfig is the configuration of the oracle p's generator runs on:
// its L2 override, or the paper's default at its node count.
func oracleConfig(p workload.Params) coherence.Config {
	if p.L2.Nodes != 0 {
		return p.L2
	}
	cfg := coherence.DefaultConfig()
	cfg.Nodes = p.Nodes
	return cfg
}

// generateBytes generates p's dataset and encodes it.
func generateBytes(t *testing.T, p workload.Params, warm, measure int) (*Dataset, []byte) {
	t.Helper()
	d, err := Generate(p, warm, measure)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if _, err := d.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return d, b.Bytes()
}

// TestRecycledOracleGeneratesSameBytes: a dataset generated on an oracle
// that another run left behind and recycled encodes to the same bytes as
// one generated on a new oracle. It covers the six paper workloads, the
// phased, tenant-mix and regulated presets, and then two workloads on
// another L2 geometry, so oracles of two configurations are listed one
// after the other. Each recycled run's oracle is one the test dirtied
// with the previous case's accesses and holds across the recycle, so no
// collection can free it and Generate must take it; a collection before
// each fresh run frees every idle oracle, so that run builds its own.
func TestRecycledOracleGeneratesSameBytes(t *testing.T) {
	const warm, measure = 3000, 3000
	var cases []workload.Params
	for _, name := range append(workload.PaperNames(), "phased", "tenant-mix", "regulated") {
		p, err := workload.Preset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, p)
	}
	small := coherence.Config{Nodes: 16, L2: cache.Config{SizeBytes: 256 << 10, Ways: 4, BlockBytes: 64}, TrackBlockStats: true}
	for _, name := range []string{"oltp", "ocean"} {
		p, err := workload.Preset(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		p.L2 = small
		cases = append(cases, p)
	}
	prev, _ := generateBytes(t, workload.TenantMixPreset(5), warm, measure)
	for _, p := range cases {
		runtime.GC()
		d, fresh := generateBytes(t, p, warm, measure)
		cfg := oracleConfig(p)
		held := coherence.NewSystem(cfg)
		for i := 0; i < prev.Len(); i++ {
			rec := prev.RecordAt(i)
			k := coherence.Load
			if rec.Kind == trace.GetExclusive {
				k = coherence.Store
			}
			held.Access(nodeset.NodeID(rec.Requester), rec.Addr, k)
		}
		coherence.Recycle(held)
		_, got := generateBytes(t, p, warm, measure)
		if coherence.NewSystem(cfg) != held {
			t.Fatalf("%s: Generate did not run on the recycled oracle", p.Name)
		}
		if !bytes.Equal(got, fresh) {
			t.Errorf("%s (L2 %+v): a dataset generated on a recycled oracle differs from a fresh one", p.Name, cfg.L2)
		}
		prev = d
	}
}
