// Command tracegen generates a synthetic coherence-request trace for one
// of the paper's workloads, imports or re-exports external text traces,
// or summarizes an existing dataset file.
//
// Usage:
//
//	tracegen -workload oltp -misses 1000000 [-warm 100000] -o oltp.dset
//	tracegen -import trace.csv -format csv -name mytrace -dataset-dir dsets/
//	tracegen -export csv -i oltp.dset -o oltp.csv
//	tracegen -summarize oltp.dset
//
// The output is the columnar dataset format (internal/dataset disk
// format), the one stored form of a recorded miss stream: the trace
// columns and the per-miss coherence annotations (owner, sharers,
// requester state) plus the whole-run block statistics, exactly the file
// the tiered dataset store writes — so a pre-generated file drops
// straight into a -dataset-dir cache consumer or loads zero-copy via
// dataset.ReadFile. -warm splits the stream into warm and measured
// regions the way the sweeps consume it.
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
// -summarize reads a dataset file and reports the workload's source kind
// (generated, imported, phased, tenant-mix) alongside the raw counts; a
// file that is not a dataset fails with the dataset decoder's error.
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

	"destset/internal/atomicfile"
	"destset/internal/dataset"
	"destset/internal/experiments"
	"destset/internal/ingest"
	"destset/internal/trace"
	"destset/internal/workload"
)

func main() {
	var (
		name       = flag.String("workload", "oltp", "workload preset name")
		misses     = flag.Int("misses", 1_000_000, "number of measured misses to generate")
		warmN      = flag.Int("warm", 0, "number of warm-region misses preceding the measured region (with -import, the number of leading records treated as warm)")
		seed       = flag.Uint64("seed", 1, "generation seed")
		out        = flag.String("o", "", "output file (default stdout)")
		summarize  = flag.String("summarize", "", "summarize an existing dataset file instead")
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
		dest, err := dataset.Install(dir, key, func() (*dataset.Dataset, error) { return ds, nil })
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "tracegen: imported %d records of %s (%s) into %s\n",
			ds.Len(), p.Name, p.Import.Format, dest)
		enc, err := json.MarshalIndent(experiments.DatasetWorkload(ds), "", "  ")
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

// summary reports a dataset file: where its records came from, their
// counts by kind and requester, and its regions and annotations. A file
// that is not a dataset fails with the dataset decoder's error.
func summary(path string) error {
	ds, err := dataset.ReadFile(path)
	if err != nil {
		return err
	}
	n := ds.Len()
	var reads, instr, shared uint64
	perNode := make([]uint64, ds.Nodes())
	for i := 0; i < n; i++ {
		rec, mi := ds.At(i)
		instr += uint64(rec.Gap)
		if rec.Kind == trace.GetShared {
			reads++
		}
		perNode[rec.Requester]++
		if !mi.Sharers.Empty() {
			shared++
		}
	}
	printSource(ds.Params())
	if n == 0 {
		fmt.Printf("trace: %d nodes, 0 misses\n", ds.Nodes())
	} else {
		fmt.Printf("trace: %d nodes, %d misses, %.1f%% reads, %.2f misses/1k instructions\n",
			ds.Nodes(), n, 100*float64(reads)/float64(n), 1000*float64(n)/float64(instr))
		for i, c := range perNode {
			fmt.Printf("  node %2d: %d misses\n", i, c)
		}
	}
	fmt.Printf("dataset: %d warm + %d measured, ", ds.Warm(), ds.Measure())
	if n > 0 {
		fmt.Printf("%.1f%% of misses had sharers, ", 100*float64(shared)/float64(n))
	}
	fmt.Printf("%d touched-block stats\n", len(ds.BlockStats()))
	return nil
}
