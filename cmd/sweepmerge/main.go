// Command sweepmerge reassembles the JSONL observation files of a
// sharded sweep into the full-run observation stream.
//
// Usage:
//
//	sweepmerge -o merged.jsonl shard0.jsonl shard1.jsonl ...
//
// Each input must be the -json output of one shard of the same sweep —
// e.g. `timing -fig7 -json -shard 0/2` and `... -shard 1/2` — and
// begins with a shard-manifest record naming the sweep plan. The merge
// refuses mismatched plan fingerprints, duplicate or missing shards,
// and records that name cells outside the plan: files from different
// sweeps never silently combine. Shard files are plan-ordered at any
// -parallel, so the merge streams them — one record per input resident
// — interleaving the records verbatim into the plan's cell order. The
// output is byte-identical to the file the unsharded -json run writes.
//
// Ctrl-C cancels the merge at the next safe point (a second Ctrl-C
// terminates immediately), and file output is atomic (written to a temp
// file, renamed on success), so an interrupted merge never leaves a
// torn output file behind.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"destset"
	"destset/internal/atomicfile"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: sweepmerge [-o merged.jsonl] shard0.jsonl shard1.jsonl ...")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// MergeObservations itself is not cancellable mid-flight, so re-arm
	// default signal handling once the context fires: the first Ctrl-C
	// cancels before the output rename, a second one terminates
	// immediately.
	context.AfterFunc(ctx, stop)

	if err := merge(ctx, *out, flag.Args()); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "sweepmerge: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "sweepmerge:", err)
		os.Exit(1)
	}
}

func merge(ctx context.Context, out string, paths []string) error {
	readers := make([]io.Reader, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		readers[i] = f
	}
	if out == "" {
		return destset.MergeObservations(os.Stdout, readers...)
	}
	return atomicfile.Write(ctx, out, func(f *os.File) error {
		return destset.MergeObservations(f, readers...)
	})
}
