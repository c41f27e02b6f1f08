// Command tracegen generates a synthetic coherence-request trace for one
// of the paper's workloads, imports or re-exports external text traces,
// or summarizes an existing trace file.
//
// Usage:
//
//	tracegen -workload oltp -misses 1000000 [-warm 100000] -o oltp.dset
//	tracegen -legacy -workload oltp -misses 1000000 -o oltp.trace
//	tracegen -import trace.csv -format csv -name mytrace -dataset-dir dsets/
//	tracegen -export csv -i oltp.dset -o oltp.csv
//	tracegen -summarize oltp.dset
//
// By default the output is the full columnar dataset format
// (internal/dataset disk format): the trace columns and the per-miss
// coherence annotations (owner, sharers, requester state) plus the
// whole-run block statistics, exactly the file the tiered dataset store
// writes — so a pre-generated file drops straight into a -dataset-dir
// cache consumer or loads zero-copy via dataset.ReadFile. -warm splits
// the stream into warm and measured regions the way the sweeps consume
// it.
//
// -import parses an external CSV or gem5/DRAMsim-style text trace
// (internal/ingest), replays it through the coherence oracle for the
// same annotations generated traces get, and writes the columnar
// dataset. With -dataset-dir the file is installed under its content
// address — the name every sweep, shard and distributed worker resolves
// it by — and the matching WorkloadSpec JSON is printed to stdout,
// ready to paste into a SweepDef or pass to traceeval/timing -dataset.
//
// -export writes a columnar dataset back out as CSV or text;
// export → import → export is byte-identical.
//
// -legacy writes the original records-only binary trace format
// (trace.Writer), which carries no annotations. -summarize auto-detects
// either format and reports the workload's source kind (generated,
// imported, phased, tenant-mix) alongside the raw counts.
//
// Ctrl-C cancels a run at the next safe point (a second Ctrl-C
// terminates immediately), and file output is atomic (written to a temp
// file, renamed on success), so an interrupted generation never leaves
// a torn output file behind.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"destset"
	"destset/internal/atomicfile"
	"destset/internal/dataset"
	"destset/internal/ingest"
	"destset/internal/trace"
	"destset/internal/workload"
)

func main() {
	var (
		name       = flag.String("workload", "oltp", "workload preset name")
		misses     = flag.Int("misses", 1_000_000, "number of measured misses to generate")
		warmN      = flag.Int("warm", 0, "number of warm-region misses preceding the measured region (columnar format only; with -import, the number of leading records treated as warm)")
		seed       = flag.Uint64("seed", 1, "generation seed")
		out        = flag.String("o", "", "output file (default stdout)")
		legacy     = flag.Bool("legacy", false, "write the legacy records-only trace format instead of the columnar dataset")
		summarize  = flag.String("summarize", "", "summarize an existing trace/dataset file instead")
		importPath = flag.String("import", "", "import an external text trace file instead of generating")
		format     = flag.String("format", "csv", "external trace format for -import/-export: csv or text")
		impName    = flag.String("name", "imported", "workload name for the imported trace")
		nodesF     = flag.Int("nodes", 0, "system size for -import (0 derives max cpu + 1 from the trace)")
		gapF       = flag.Uint("gap", 0, "instruction gap assigned to imported lines that carry none (default 200)")
		datasetDir = flag.String("dataset-dir", "", "install the imported dataset under its content address in this directory and print its WorkloadSpec JSON")
		exportF    = flag.String("export", "", "re-export a columnar dataset (-i) as csv or text")
		in         = flag.String("i", "", "input dataset file for -export")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// The columnar generation itself is not cancellable mid-flight, so
	// re-arm default signal handling once the context fires: the first
	// Ctrl-C cancels at the next safe point (before any file is
	// written), a second one terminates immediately.
	context.AfterFunc(ctx, stop)

	fail := func(err error) {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "tracegen: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}

	var err error
	switch {
	case *summarize != "":
		err = summary(*summarize)
	case *exportF != "":
		err = exportDataset(ctx, *in, *exportF, *out)
	case *importPath != "":
		opt := ingest.Options{Name: *impName, Nodes: *nodesF, Warm: *warmN, DefaultGap: uint32(*gapF)}
		err = importTrace(ctx, *importPath, *format, opt, *out, *datasetDir)
	case *legacy:
		err = generateLegacy(ctx, *name, *seed, *misses, *out)
	default:
		err = generate(ctx, *name, *seed, *warmN, *misses, *out)
	}
	if err != nil {
		fail(err)
	}
}

// withOutput runs fn with the output writer: stdout, or an atomically
// written file (temp + rename, see internal/atomicfile) so an
// interrupted or failed run never leaves a torn file.
func withOutput(ctx context.Context, out string, fn func(io.Writer) error) error {
	if out == "" {
		return fn(os.Stdout)
	}
	return atomicfile.Write(ctx, out, func(f *os.File) error { return fn(f) })
}

// generate writes the full columnar dataset: trace plus coherence
// annotations and block statistics, warm and measured regions.
func generate(ctx context.Context, name string, seed uint64, warm, misses int, out string) error {
	params, err := workload.Preset(name, seed)
	if err != nil {
		return err
	}
	ds, err := dataset.Generate(params, warm, misses)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	err = withOutput(ctx, out, func(w io.Writer) error {
		_, err := ds.WriteTo(w)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d warm + %d measured annotated misses of %s (%d block stats)\n",
		ds.Warm(), ds.Measure(), name, len(ds.BlockStats()))
	return nil
}

// importTrace parses an external trace through internal/ingest and
// writes the annotated columnar dataset: to -o (or stdout), or into a
// dataset directory under its content address, printing the matching
// WorkloadSpec JSON for sweeps to consume.
func importTrace(ctx context.Context, path, format string, opt ingest.Options, out, dir string) error {
	f, err := ingest.ParseFormat(format)
	if err != nil {
		return err
	}
	ds, err := ingest.ImportFile(path, f, opt)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	p := ds.Params()
	if dir != "" {
		key := dataset.KeyOf(p, ds.Warm(), ds.Measure())
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		dest := key.Path(dir)
		err = atomicfile.Write(ctx, dest, func(f *os.File) error {
			_, err := ds.WriteTo(f)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tracegen: imported %d records of %s (%s) into %s\n",
			ds.Len(), p.Name, p.Import.Format, dest)
		spec := destset.WorkloadSpec{
			Name:    p.Name,
			Params:  &p,
			Warm:    explicitScale(ds.Warm()),
			Measure: explicitScale(ds.Measure()),
		}
		enc, err := json.MarshalIndent(spec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", enc)
		return nil
	}
	err = withOutput(ctx, out, func(w io.Writer) error {
		_, err := ds.WriteTo(w)
		return err
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: imported %d warm + %d measured records of %s (%s format, %d block stats)\n",
		ds.Warm(), ds.Measure(), p.Name, p.Import.Format, len(ds.BlockStats()))
	return nil
}

// explicitScale converts a dataset region size to WorkloadSpec's scale
// convention, where 0 means "inherit the runner default" and negative
// means "explicitly none".
func explicitScale(n int) int {
	if n == 0 {
		return -1
	}
	return n
}

// exportDataset re-emits a columnar dataset as an external text trace.
func exportDataset(ctx context.Context, in, format, out string) error {
	if in == "" {
		return fmt.Errorf("-export needs an input dataset (-i file.dset)")
	}
	f, err := ingest.ParseFormat(format)
	if err != nil {
		return err
	}
	ds, err := dataset.ReadFile(in)
	if err != nil {
		return err
	}
	err = withOutput(ctx, out, func(w io.Writer) error {
		return ingest.Export(w, ds, f)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: exported %d records as %s\n", ds.Len(), f)
	return nil
}

// ctxCheckStride bounds how many records the legacy path writes between
// cancellation checks.
const ctxCheckStride = 4096

// generateLegacy writes the original records-only binary trace format.
func generateLegacy(ctx context.Context, name string, seed uint64, misses int, out string) error {
	params, err := workload.Preset(name, seed)
	if err != nil {
		return err
	}
	g, err := workload.Open(params)
	if err != nil {
		return err
	}
	err = withOutput(ctx, out, func(w io.Writer) error {
		tw, err := trace.NewWriter(w, params.Nodes)
		if err != nil {
			return err
		}
		for i := 0; i < misses; i++ {
			if i%ctxCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			rec, _ := g.Next()
			if err := tw.Write(rec); err != nil {
				return err
			}
		}
		return tw.Flush()
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tracegen: wrote %d misses of %s (legacy format, no annotations)\n", misses, name)
	return nil
}

func summary(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	// Sniff with whatever prefix the file has: a valid legacy file can
	// be as short as its 6-byte header, so an 8-byte ReadFull would
	// wrongly reject it. Truncation diagnostics belong to the format
	// readers below, which validate properly.
	var magic [8]byte
	n, err := io.ReadAtLeast(f, magic[:], 1)
	f.Close()
	if err != nil {
		return fmt.Errorf("%s: empty or unreadable: %w", path, err)
	}
	if dataset.Sniff(magic[:n]) {
		return summarizeDataset(path)
	}
	return summarizeLegacy(path)
}

// tally accumulates the summary statistics both formats share.
type tally struct {
	n, reads, instr uint64
	perNode         []uint64
}

func (t *tally) add(rec trace.Record) {
	t.n++
	t.instr += uint64(rec.Gap)
	if rec.Kind == trace.GetShared {
		t.reads++
	}
	t.perNode[rec.Requester]++
}

func (t *tally) print(nodes int) {
	if t.n == 0 {
		fmt.Printf("trace: %d nodes, 0 misses\n", nodes)
		return
	}
	fmt.Printf("trace: %d nodes, %d misses, %.1f%% reads, %.2f misses/1k instructions\n",
		nodes, t.n, 100*float64(t.reads)/float64(t.n), 1000*float64(t.n)/float64(t.instr))
	for i, c := range t.perNode {
		fmt.Printf("  node %2d: %d misses\n", i, c)
	}
}

// printSource reports where the dataset's records came from: the
// workload's source kind and, for composed kinds, the composition
// structure.
func printSource(p workload.Params) {
	switch p.Kind() {
	case workload.KindImported:
		fmt.Printf("source: imported %s trace %q, %d records, sha256 %s…\n",
			p.Import.Format, p.Name, p.Import.Records, p.Import.SHA256[:16])
	case workload.KindPhased:
		fmt.Printf("source: phased workload %q, %d phases per cycle:\n", p.Name, len(p.Phases))
		for i, ph := range p.Phases {
			fmt.Printf("  phase %d: %q, %d misses\n", i, ph.Params.Name, ph.Misses)
		}
	case workload.KindTenantMix:
		fmt.Printf("source: tenant-mix workload %q, %d interleaved tenants of %q\n",
			p.Name, len(p.Tenants), p.Tenants[0].Name)
	default:
		fmt.Printf("source: generated workload %q, seed %d\n", p.Name, p.Seed)
	}
	if p.Regulate.Enabled() {
		fmt.Printf("regulation: adaptive bandwidth target %.0f bytes/1k instructions (mu %g, max throttle %gx)\n",
			p.Regulate.TargetBytesPer1K, p.Regulate.Mu, p.Regulate.MaxThrottle)
	}
}

func summarizeDataset(path string) error {
	ds, err := dataset.ReadFile(path)
	if err != nil {
		return err
	}
	t := tally{perNode: make([]uint64, ds.Nodes())}
	var annotated uint64
	for i := 0; i < ds.Len(); i++ {
		rec, mi := ds.At(i)
		t.add(rec)
		if !mi.Sharers.Empty() {
			annotated++
		}
	}
	printSource(ds.Params())
	t.print(ds.Nodes())
	fmt.Printf("dataset: %d warm + %d measured, %.1f%% of misses had sharers, %d touched-block stats\n",
		ds.Warm(), ds.Measure(), 100*float64(annotated)/float64(t.n), len(ds.BlockStats()))
	return nil
}

func summarizeLegacy(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	t := tally{perNode: make([]uint64, r.Nodes())}
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		t.add(rec)
	}
	t.print(r.Nodes())
	return nil
}
