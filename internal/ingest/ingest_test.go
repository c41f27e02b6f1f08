package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"destset/internal/coherence"
	"destset/internal/dataset"
	"destset/internal/memtest"
	"destset/internal/nodeset"
	"destset/internal/trace"
	"destset/internal/workload"
)

const sampleCSV = `addr,cpu,op,pc,gap
# producer-consumer ping-pong on one block plus private traffic
0x1000,0,W,0x400100,150
0x1000,1,R,0x400200,220
0x2040,2,W,0x400300,180
0x1000,0,W,0x400100,150
0x1000,1,R,0x400200,220
0x3080,3,R,0x400400,90
`

const sampleText = `# same trace, gem5-style columns
0x1000 W 0 0x400100 150
0x1000 R 1 0x400200 220
0x2040 W 2 0x400300 180
0x1000 W 0 0x400100 150
0x1000 R 1 0x400200 220
0x3080 R 3 0x400400 90
`

// highCSV mixes low addresses with two user-space ones whose block
// numbers are near 2^41, far above any generated workload's.
const highCSV = `addr,cpu,op,pc,gap
0x7ffd4a3c1040,1,W,0x400200,120
0x1000,0,W,0x400100,150
0x7ffd4a3c1000,0,R,0x400300,90
0x1000,1,R,0x400200,220
0x7ffd4a3c1040,2,R,0x400400,60
0x2040,2,W,0x400500,180
`

func importString(t *testing.T, s string, f Format, opt Options) *dataset.Dataset {
	t.Helper()
	ds, err := Import(strings.NewReader(s), f, opt)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestImportBothFormatsAgreeOnRecords(t *testing.T) {
	a := importString(t, sampleCSV, FormatCSV, Options{Warm: 1})
	b := importString(t, sampleText, FormatText, Options{Warm: 1})
	if a.Len() != 6 || b.Len() != 6 {
		t.Fatalf("lengths %d, %d; want 6", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		ra, ia := a.At(i)
		rb, ib := b.At(i)
		if ra != rb || ia != ib {
			t.Fatalf("record %d: csv %+v/%+v vs text %+v/%+v", i, ra, ia, rb, ib)
		}
	}
	// The two formats hash differently, so they are distinct workloads.
	if a.Params().Import.SHA256 == b.Params().Import.SHA256 {
		t.Error("different input bytes produced the same content hash")
	}
}

func TestImportFieldMapping(t *testing.T) {
	ds := importString(t, sampleCSV, FormatCSV, Options{})
	rec := ds.RecordAt(0)
	if rec.Addr != 0x1000/trace.BlockBytes {
		t.Errorf("addr = %#x, want byte address 0x1000 / %d", uint64(rec.Addr), trace.BlockBytes)
	}
	if rec.Kind != trace.GetExclusive || rec.Requester != 0 || rec.PC != 0x400100 || rec.Gap != 150 {
		t.Errorf("record 0 = %+v", rec)
	}
	if ds.Params().Nodes != 4 {
		t.Errorf("derived nodes = %d, want max cpu + 1 = 4", ds.Params().Nodes)
	}
	if ds.Params().Import.Records != 6 {
		t.Errorf("Records = %d", ds.Params().Import.Records)
	}
	// Realized rate: 6 misses over 1010 instructions.
	if got := ds.Params().MissesPer1000Instr; got < 5.9 || got > 6.0 {
		t.Errorf("MissesPer1000Instr = %v", got)
	}
}

func TestImportAnnotationsMatchOracleReplay(t *testing.T) {
	ds := importString(t, sampleCSV, FormatCSV, Options{})
	cfg := coherence.DefaultConfig()
	cfg.Nodes = ds.Params().Nodes
	sys := coherence.NewSystem(cfg)
	for i := 0; i < ds.Len(); i++ {
		rec, mi := ds.At(i)
		if got := sys.Apply(rec); got != mi {
			t.Fatalf("record %d: stored annotation %+v, fresh replay %+v", i, mi, got)
		}
	}
	// The second write to 0x1000 must see node 1 as a sharer.
	_, mi := ds.At(3)
	if !mi.Sharers.Contains(1) {
		t.Errorf("record 3 sharers = %v, want node 1 present", mi.Sharers)
	}
	if len(ds.BlockStats()) == 0 {
		t.Error("import produced no block statistics")
	}
}

func TestImportHighAddresses(t *testing.T) {
	ds := importString(t, highCSV, FormatCSV, Options{Warm: 2})
	hi := trace.Addr(0x7ffd4a3c1000 / trace.BlockBytes)
	want := []coherence.BlockStat{
		{Addr: 0x1000 / trace.BlockBytes, Touched: nodeset.Of(0, 1), Misses: 2},
		{Addr: 0x2040 / trace.BlockBytes, Touched: nodeset.Of(2), Misses: 1},
		{Addr: hi, Touched: nodeset.Of(0), Misses: 1},
		{Addr: hi + 1, Touched: nodeset.Of(1, 2), Misses: 2},
	}
	if got := ds.BlockStats(); !slices.Equal(got, want) {
		t.Errorf("block stats = %+v, want %+v in address order", got, want)
	}
}

func TestImportDefaultsAndDialects(t *testing.T) {
	// Missing pc and gap; decimal addresses; alternative op tokens.
	in := "4096,1,read\n8256,0,STORE\n4096,1,ld\n"
	ds := importString(t, in, FormatCSV, Options{DefaultGap: 77})
	if ds.Len() != 3 {
		t.Fatalf("len = %d", ds.Len())
	}
	r0 := ds.RecordAt(0)
	if r0.Addr != 4096/trace.BlockBytes || r0.Kind != trace.GetShared || r0.Gap != 77 {
		t.Errorf("record 0 = %+v", r0)
	}
	if r0.PC != trace.PC(0x40000+4*1) {
		t.Errorf("synthesized PC = %#x", uint64(r0.PC))
	}
	if ds.RecordAt(1).Kind != trace.GetExclusive {
		t.Error("STORE not parsed as a write")
	}
	if ds.Params().Nodes != 2 {
		t.Errorf("nodes = %d, want clamp to 2", ds.Params().Nodes)
	}
	// A first line whose address is bare hex is a record, not a header.
	bare := importString(t, "deadbeef,0,r\n1000,1,w\n2000,2,r\n", FormatCSV, Options{})
	if bare.Len() != 3 || bare.RecordAt(0).Addr != 0xdeadbeef/trace.BlockBytes {
		t.Errorf("bare-hex first line: %d records, record 0 = %+v", bare.Len(), bare.RecordAt(0))
	}
}

func TestImportErrors(t *testing.T) {
	cases := []struct {
		name, in string
		f        Format
		opt      Options
		wantLine int
		wantMsg  string
	}{
		{"truncated csv row", "0x40,0,R\n0x80,1\n", FormatCSV, Options{}, 2, "got 2 fields"},
		{"bad address", "0x40,0,R\nzz!,1,W\n", FormatCSV, Options{}, 2, "bad address"},
		{"bad op", "0x40 Q 0\n", FormatText, Options{}, 1, "bad op"},
		{"bad cpu", "0x40 R -1\n", FormatText, Options{}, 1, "bad cpu"},
		{"zero gap", "0x40,0,R,0x1,0\n", FormatCSV, Options{}, 1, "bad gap"},
		{"too many fields", "0x40 R 0 0x1 5 9\n", FormatText, Options{}, 1, "too many fields"},
		{"empty", "# only a comment\n", FormatCSV, Options{}, 0, "no records"},
		{"warm eats all", "0x40,0,R\n", FormatCSV, Options{Warm: 1}, 0, "no measured region"},
		{"nodes too small", "0x40,5,R\n", FormatCSV, Options{Nodes: 4}, 0, "cpu 5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Import(strings.NewReader(tc.in), tc.f, tc.opt)
			if err == nil {
				t.Fatal("import accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not mention %q", err, tc.wantMsg)
			}
			if tc.wantLine > 0 {
				var pe *ParseError
				if !errors.As(err, &pe) || pe.Line != tc.wantLine {
					t.Fatalf("error %q: want ParseError at line %d", err, tc.wantLine)
				}
			}
		})
	}
}

func TestExportImportExportIdentity(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		f         Format
	}{
		{"csv", sampleCSV, FormatCSV},
		{"text", sampleText, FormatText},
		{"csv_high_addresses", highCSV, FormatCSV},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := importString(t, tc.src, tc.f, Options{Warm: 2})
			var first bytes.Buffer
			if err := Export(&first, ds, tc.f); err != nil {
				t.Fatal(err)
			}
			ds2, err := Import(bytes.NewReader(first.Bytes()), tc.f, Options{Warm: 2, Nodes: ds.Params().Nodes})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < ds.Len(); i++ {
				ra, ia := ds.At(i)
				rb, ib := ds2.At(i)
				if ra != rb || ia != ib {
					t.Fatalf("record %d changed across export/import: %+v vs %+v", i, ra, rb)
				}
			}
			var second bytes.Buffer
			if err := Export(&second, ds2, tc.f); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Error("export -> import -> export is not byte-identical")
			}
		})
	}
}

func TestImportIdentityIsContentAddressed(t *testing.T) {
	opt := Options{Name: "fix", Warm: 1}
	a := importString(t, sampleCSV, FormatCSV, opt)
	b := importString(t, sampleCSV, FormatCSV, opt)
	ka := dataset.KeyOf(a.Params(), a.Warm(), a.Measure())
	kb := dataset.KeyOf(b.Params(), b.Warm(), b.Measure())
	if ka != kb {
		t.Error("re-importing identical bytes moved the dataset key")
	}
	// One changed byte (a gap) must move the key.
	c := importString(t, strings.Replace(sampleCSV, ",150\n", ",151\n", 1), FormatCSV, opt)
	if kc := dataset.KeyOf(c.Params(), c.Warm(), c.Measure()); kc == ka {
		t.Error("different input bytes kept the same dataset key")
	}
}

func TestImportedDatasetSurvivesDisk(t *testing.T) {
	ds := importString(t, sampleCSV, FormatCSV, Options{Warm: 2})
	path := filepath.Join(t.TempDir(), "imp.dset")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := dataset.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if kg, kd := dataset.KeyOf(got.Params(), got.Warm(), got.Measure()),
		dataset.KeyOf(ds.Params(), ds.Warm(), ds.Measure()); kg != kd {
		t.Fatalf("params changed across disk: %+v vs %+v", got.Params(), ds.Params())
	}
	for i := 0; i < ds.Len(); i++ {
		ra, ia := ds.At(i)
		rb, ib := got.At(i)
		if ra != rb || ia != ib {
			t.Fatalf("record %d changed across disk", i)
		}
	}
}

func TestImportedParamsRefuseOpen(t *testing.T) {
	ds := importString(t, sampleCSV, FormatCSV, Options{})
	if _, err := workload.Open(ds.Params()); err == nil ||
		!strings.Contains(err.Error(), "cannot be regenerated") {
		t.Fatalf("Open(imported params) = %v, want a cannot-regenerate error", err)
	}
}

func TestParseFormat(t *testing.T) {
	if f, err := ParseFormat(" CSV "); err != nil || f != FormatCSV {
		t.Errorf("ParseFormat(CSV) = %v, %v", f, err)
	}
	if _, err := ParseFormat("binary"); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestImportAllocBudget pins the import pipeline, parse plus replay
// through the coherence oracle, on a 20k-line CSV of 512 blocks shared
// by 8 CPUs. Measured at 20.99 MB and 60,088 allocations per import; the
// bound is 1.2x that.
func TestImportAllocBudget(t *testing.T) {
	const maxBytes, maxAllocs = 1.2 * 20.99e6, 1.2 * 60_088
	const lines = 20_000
	var sb strings.Builder
	sb.WriteString("addr,cpu,op,pc,gap\n")
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < lines; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		fmt.Fprintf(&sb, "0x%x,%d,%s,0x%x,%d\n",
			0x10000+(state>>9%512)*64, state%8, []string{"R", "W"}[state>>20&1],
			0x40000+4*(state>>24%1024), 100+state>>40%300)
	}
	in := sb.String()

	gotB, gotAllocs := memtest.PerRun(5, func() {
		ds, err := Import(strings.NewReader(in), FormatCSV, Options{Name: "budget-import", Warm: 5_000})
		if err != nil {
			t.Fatal(err)
		}
		if ds.Len() != lines {
			t.Fatalf("imported %d records, want %d", ds.Len(), lines)
		}
	})
	t.Logf("%d-line import: %.0f B, %.0f allocs", lines, gotB, gotAllocs)
	if gotB > maxBytes || gotAllocs > maxAllocs {
		t.Errorf("%d-line import allocates %.0f B in %.0f allocs, budget %.0f B in %.0f",
			lines, gotB, gotAllocs, maxBytes, maxAllocs)
	}
}
