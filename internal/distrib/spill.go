package distrib

// Upload spill files: every accepted completion is written to disk the
// moment it validates, so the coordinator's residency is O(open
// leases) regardless of sweep size, and a restarted coordinator
// re-adopts completed ranges by re-opening their spills.
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
// Names are the fingerprint's content address (results.Path), so
// re-completions and resumed coordinators converge on the same file,
// written atomically.

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"destset/internal/results"
)

// spillFingerprint is the fingerprint of the spill of cells [lo, hi) of
// a plan.
func spillFingerprint(plan string, lo, hi int) string {
	return fmt.Sprintf("destset-spill|%s|%d|%d", plan, lo, hi)
}

// writeSpill persists one completed range: perCell[i] holds cell
// lo+i's record lines in upload order. The file appears atomically
// under its content-addressed name, which is returned.
func writeSpill(dir, kind, plan string, lo, hi int, perCell [][][]byte) (string, error) {
	var payload []byte
	for _, lines := range perCell {
		for _, line := range lines {
			payload = append(append(payload, line...), '\n')
		}
	}
	fp := spillFingerprint(plan, lo, hi)
	path := results.Path(dir, fp)
	if err := results.WriteFile(path, kind, fp, payload); err != nil {
		return "", fmt.Errorf("distrib: spilling cells [%d,%d): %w", lo, hi, err)
	}
	return filepath.Base(path), nil
}

// copySpill reads a spill file whole, checks that it is the result
// record of cells [lo, hi) of this plan and kind, and only then copies
// its records to w. A file that fails the check is ErrStateCorrupt.
// Resume calls it with io.Discard to revalidate a completed range
// before re-adopting it.
func copySpill(w io.Writer, dir, name, kind, plan string, lo, hi int) error {
	path := filepath.Join(dir, name)
	got, payload, err := results.ReadFile(path, spillFingerprint(plan, lo, hi))
	switch {
	case errors.Is(err, results.ErrBadFormat):
		return fmt.Errorf("%w: %w", ErrStateCorrupt, err)
	case err != nil:
		return err
	case got != kind:
		return fmt.Errorf("%w: %s holds %s records, want %s", ErrStateCorrupt, path, got, kind)
	}
	_, err = w.Write(payload)
	return err
}
