package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"destset"
	"destset/internal/dataset"
	"destset/internal/ingest"
	"destset/internal/workload"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	ferr := fn()
	os.Stdout = old
	w.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if ferr != nil {
		t.Fatal(ferr)
	}
	return buf.String()
}

const testCSV = `addr,cpu,op,pc,gap
0x1000,0,R,0x400,150
0x1040,1,W,0x404,220
0x1000,1,R,0x408,180
0x2000,2,W,0x40c,90
0x1000,3,R,0x410,300
0x1040,0,W,0x414,110
`

// TestSummaryRefusesLegacyFile: a file in the retired records-only
// trace format, here one whose record names requester 200 of a 4-node
// system, is not a dataset, and summary fails with the dataset
// decoder's error instead of reading it.
func TestSummaryRefusesLegacyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(path, []byte("DSPT\x01\x04\x00\xc8\x02\x00\x05"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := summary(path); !errors.Is(err, dataset.ErrBadFormat) {
		t.Errorf("summary of a records-only trace: err = %v, want dataset.ErrBadFormat", err)
	}
}

// TestSummaryOfEmptyDataset: a dataset of no misses reports 0 misses and
// no share of misses with sharers, rather than a NaN percentage.
func TestSummaryOfEmptyDataset(t *testing.T) {
	p, err := workload.Preset("oltp", 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(p, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.dset")
	if err := dataset.WriteFile(path, ds); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error { return summary(path) })
	for _, want := range []string{"trace: 16 nodes, 0 misses\n", "dataset: 0 warm + 0 measured, 0 touched-block stats\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary of an empty dataset lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "NaN") || strings.Contains(out, "%") {
		t.Errorf("summary of an empty dataset prints a percentage:\n%s", out)
	}
}

// TestSummaryFailsOnBadInput pins the non-zero-exit contract: truncated
// or empty inputs must surface an error from summary (main turns it
// into exit 1), not a partial report.
func TestSummaryFailsOnBadInput(t *testing.T) {
	dir := t.TempDir()

	p, err := workload.Preset("oltp", 1)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(p, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ds.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.dset")
	if err := os.WriteFile(truncated, buf.Bytes()[:buf.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := summary(truncated); err == nil {
		t.Error("summary accepted a truncated dataset file")
	}

	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := summary(empty); err == nil {
		t.Error("summary accepted an empty file")
	}
}

// TestImportInstallsIntoDatasetDir covers the sweep-facing import path:
// the dataset lands at its content address in the directory and the
// printed WorkloadSpec JSON names it, loadable by any sweep.
func TestImportInstallsIntoDatasetDir(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(src, []byte(testCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	dsets := filepath.Join(dir, "dsets")
	opt := ingest.Options{Name: "cli-import", Warm: 2}
	out := captureStdout(t, func() error {
		return importTrace(context.Background(), src, "csv", opt, "", dsets)
	})

	var spec destset.WorkloadSpec
	if err := json.Unmarshal([]byte(out), &spec); err != nil {
		t.Fatalf("printed spec does not decode: %v\n%s", err, out)
	}
	if spec.Params == nil || !spec.Params.Import.Enabled() {
		t.Fatalf("spec params = %+v, want an imported source", spec.Params)
	}
	if spec.Name != "cli-import" || spec.Warm != 2 || spec.Measure != 4 {
		t.Errorf("spec = name %q warm %d measure %d, want cli-import/2/4", spec.Name, spec.Warm, spec.Measure)
	}

	key := dataset.KeyOf(*spec.Params, 2, 4)
	ds, err := dataset.ReadFile(key.Path(dsets))
	if err != nil {
		t.Fatalf("installed dataset unreadable at its content address: %v", err)
	}
	if ds.Len() != 6 {
		t.Errorf("installed dataset has %d records, want 6", ds.Len())
	}

	// The summarizer reports the source kind for imported datasets.
	sum := captureStdout(t, func() error { return summary(key.Path(dsets)) })
	if !strings.Contains(sum, "source: imported csv trace") {
		t.Errorf("summary lacks imported-source line:\n%s", sum)
	}
}

// TestCLIExportImportRoundTrip drives the CLI functions end to end:
// import a CSV, export it, re-import the export, export again — the two
// exports must be byte-identical.
func TestCLIExportImportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	src := filepath.Join(dir, "in.csv")
	if err := os.WriteFile(src, []byte(testCSV), 0o644); err != nil {
		t.Fatal(err)
	}
	dset1 := filepath.Join(dir, "one.dset")
	if err := importTrace(ctx, src, "csv", ingest.Options{Name: "rt"}, dset1, ""); err != nil {
		t.Fatal(err)
	}
	csv1 := filepath.Join(dir, "one.csv")
	if err := exportDataset(ctx, dset1, "csv", csv1); err != nil {
		t.Fatal(err)
	}
	dset2 := filepath.Join(dir, "two.dset")
	if err := importTrace(ctx, csv1, "csv", ingest.Options{Name: "rt"}, dset2, ""); err != nil {
		t.Fatal(err)
	}
	csv2 := filepath.Join(dir, "two.csv")
	if err := exportDataset(ctx, dset2, "csv", csv2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(csv1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(csv2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("export→import→export is not byte-identical:\n--- first\n%s\n--- second\n%s", b1, b2)
	}
}

// TestSummaryReportsComposedSources checks the composition summaries:
// phased and tenant-mix datasets name their structure, regulated ones
// their bandwidth target.
func TestSummaryReportsComposedSources(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		preset string
		want   []string
	}{
		{"phased", []string{"source: phased workload", "phase 0"}},
		{"tenant-mix", []string{"source: tenant-mix workload", "interleaved tenants"}},
		{"regulated", []string{"regulation: adaptive bandwidth target"}},
	} {
		p, err := workload.Preset(tc.preset, 1)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := dataset.Generate(p, 0, 400)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, tc.preset+".dset")
		if err := dataset.WriteFile(path, ds); err != nil {
			t.Fatal(err)
		}
		out := captureStdout(t, func() error { return summary(path) })
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s summary lacks %q:\n%s", tc.preset, want, out)
			}
		}
	}
}
