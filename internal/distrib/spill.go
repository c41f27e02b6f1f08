package distrib

// Upload spill files: every accepted completion is written to disk the
// moment it validates, so the lease table holds no observation records
// whatever the sweep's size (a result store, Config.Results, keeps its
// own copy), and a restarted coordinator re-adopts completed ranges by
// re-opening their spills.
//
// A spill is one result record (internal/results): its kind is the
// plan kind, its fingerprint names the plan and the range [lo, hi), and
// its payload is the range's observation records in plan order (the
// coordinator refuses uploads out of plan order), each line with its
// newline. The record's header, lengths, CRC-64 and fingerprint refuse
// a torn, altered or foreign spill. That makes the file bytes
// deterministic — two workers racing to complete the same range spill
// identical files — and, since tasks partition the plan in order, the
// final output is the merged manifest followed by the spills' payloads
// concatenated in task order, never an in-memory join.
//
// A spill is found by its range: it lives at the content address of its
// fingerprint (results.Path), so the lease log names no files,
// re-completions and resumed coordinators converge on the same file,
// written atomically, and a spill is trusted only for a range the log
// accepted.

import (
	"errors"
	"fmt"
	"io"
	"io/fs"

	"destset/internal/results"
)

// spillFingerprint is the fingerprint of the spill of cells [lo, hi) of
// a plan.
func spillFingerprint(plan string, lo, hi int) string {
	return fmt.Sprintf("destset-spill|%s|%d|%d", plan, lo, hi)
}

// writeSpill persists one completed range: perCell[i] holds cell
// lo+i's record lines in upload order. The file appears atomically at
// the range's address.
func writeSpill(dir, kind, plan string, lo, hi int, perCell [][][]byte) error {
	var payload []byte
	for _, lines := range perCell {
		for _, line := range lines {
			payload = append(append(payload, line...), '\n')
		}
	}
	fp := spillFingerprint(plan, lo, hi)
	if err := results.WriteFile(results.Path(dir, fp), kind, fp, payload); err != nil {
		return fmt.Errorf("distrib: spilling cells [%d,%d): %w", lo, hi, err)
	}
	return nil
}

// copySpill reads the spill of cells [lo, hi) of this plan whole from
// the range's address, checks that it is that range's result record of
// this kind, and only then copies its records to w. A missing file, or
// one that fails the check, is ErrStateCorrupt. Resume calls it with
// io.Discard to revalidate a completed range before re-adopting it.
func copySpill(w io.Writer, dir, kind, plan string, lo, hi int) error {
	fp := spillFingerprint(plan, lo, hi)
	path := results.Path(dir, fp)
	got, payload, err := results.ReadFile(path, fp)
	switch {
	case errors.Is(err, results.ErrBadFormat), errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("%w: %w", ErrStateCorrupt, err)
	case err != nil:
		return err
	case got != kind:
		return fmt.Errorf("%w: %s holds %s records, want %s", ErrStateCorrupt, path, got, kind)
	}
	_, err = w.Write(payload)
	return err
}
