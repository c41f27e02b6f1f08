package experiments

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"destset"
	"destset/internal/dataset"
	"destset/internal/ingest"
)

// small is a scale at which a figure's cells run in milliseconds.
func small() Options {
	opt := QuickOptions()
	opt.WarmMisses, opt.Misses = 3000, 3000
	opt.Parallelism = 2
	return opt
}

// TestFigure5PanelsIncludeExtraWorkloads: Figure 5's panels come from
// TradeoffSweepDef, so an extra workload gets a panel of its own, and
// its points are TradeoffSweep's cells for that workload.
func TestFigure5PanelsIncludeExtraWorkloads(t *testing.T) {
	opt := small()
	opt.Workloads = []string{"ocean"}
	opt.ExtraWorkloads = []destset.WorkloadSpec{{Name: "phased", Warm: 1500, Measure: 2500}}
	panels, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 || panels[0].Workload != "ocean" || panels[1].Workload != "phased" {
		t.Fatalf("Figure 5 panels %v, want ocean then phased", panelNames(panels))
	}
	res, err := TradeoffSweep(context.Background(), opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []TradeoffPoint
	for _, r := range res {
		if r.Workload == "phased" {
			want = append(want, TradeoffPoint{
				Config:         r.Tradeoff.Config,
				MsgsPerMiss:    r.Tradeoff.RequestMsgsPerMiss,
				IndirectionPct: r.Tradeoff.IndirectionPercent,
				BytesPerMiss:   r.Tradeoff.BytesPerMiss,
			})
		}
	}
	if len(want) == 0 || !reflect.DeepEqual(panels[1].Points, want) {
		t.Errorf("phased panel %+v\nTradeoffSweep cells %+v", panels[1].Points, want)
	}
}

func panelNames(panels []WorkloadTradeoff) []string {
	names := make([]string, len(panels))
	for i, p := range panels {
		names[i] = p.Workload
	}
	return names
}

// TestFiguresServeFromResultStore: with the shared result store armed,
// a first Figure 5 + Figure 6(a) pass stores every distinct cell (OLTP's
// snooping and directory cells are in both figures), and a second pass
// is served entirely from the store with identical panels.
func TestFiguresServeFromResultStore(t *testing.T) {
	destset.PurgeResults()
	if err := destset.SetResultDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := destset.SetResultDir(""); err != nil {
			t.Error(err)
		}
		destset.PurgeResults()
	})
	opt := small()
	opt.Workloads = []string{"oltp", "ocean"}
	pass := func() ([]WorkloadTradeoff, []TradeoffPoint) {
		t.Helper()
		f5, err := Figure5(opt)
		if err != nil {
			t.Fatal(err)
		}
		f6, err := Figure6a(opt)
		if err != nil {
			t.Fatal(err)
		}
		return f5, f6
	}
	served := func(st destset.ResultStats) uint64 { return st.MemHits + st.DiskHits }

	before := destset.ResultStoreStats()
	f5, f6 := pass()
	mid := destset.ResultStoreStats()
	// Figure 5: 2 workloads × 6 engines; Figure 6(a): OLTP × 10 engines.
	if stored, hits := mid.Stores-before.Stores, served(mid)-served(before); stored != 20 || hits != 2 {
		t.Errorf("first pass stored %d cells and served %d, want 20 and 2", stored, hits)
	}
	g5, g6 := pass()
	after := destset.ResultStoreStats()
	if stored, hits := after.Stores-mid.Stores, served(after)-served(mid); stored != 0 || hits != 22 {
		t.Errorf("second pass stored %d cells and served %d, want 0 and 22", stored, hits)
	}
	if !reflect.DeepEqual(f5, g5) || !reflect.DeepEqual(f6, g6) {
		t.Errorf("panels served from the store differ from the computed ones:\n%+v\n%+v\n%+v\n%+v", f5, g5, f6, g6)
	}
}

// TestLoadExtraDatasetsReplacesTornInstall: a torn file under an extra
// dataset's content address is replaced by the good file passed again.
// An imported trace cannot be regenerated, so a torn file that stayed
// would fail every later sweep of it.
func TestLoadExtraDatasetsReplacesTornInstall(t *testing.T) {
	ds, err := ingest.ImportFile(filepath.Join("..", "..", "testdata", "ingest", "sample_1k.csv"),
		ingest.FormatCSV, ingest.Options{Name: "torn-install", Warm: 300})
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "i.dset")
	if err := dataset.WriteFile(src, ds); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	installed := dataset.KeyOf(ds.Params(), ds.Warm(), ds.Measure()).Path(dir)
	for _, tear := range []bool{false, true} {
		if tear {
			if err := os.Truncate(installed, 100); err != nil {
				t.Fatal(err)
			}
		}
		specs, err := LoadExtraDatasets([]string{src}, dir)
		if err != nil {
			t.Fatal(err)
		}
		if want := DatasetWorkload(ds); len(specs) != 1 || !reflect.DeepEqual(specs[0], want) {
			t.Errorf("specs %+v, want [%+v]", specs, want)
		}
		got, err := dataset.ReadFile(installed)
		if err != nil {
			t.Fatalf("torn=%v: installed file does not load: %v", tear, err)
		}
		if got.Len() != ds.Len() || got.Params().Import != ds.Params().Import {
			t.Errorf("torn=%v: installed %d records of %+v, want %d of %+v",
				tear, got.Len(), got.Params().Import, ds.Len(), ds.Params().Import)
		}
	}
}
