// Package atomicfile writes whole files atomically: content goes to a
// temp file in the destination directory and is renamed over the target
// only when the writer — and the caller's context — succeeded. An
// interrupted or failed run therefore leaves no torn output behind,
// just nothing (the temp file is removed on every non-success path).
// Every file the module writes whole goes through it: the cmds' output
// files (tracegen, sweepmerge, sweepd), dataset and result files, wire
// installs, and the coordinator's spill files and each new lease log.
package atomicfile

import (
	"context"
	"os"
	"path/filepath"
)

// Write streams fn's output into path atomically. fn gets the temp file
// itself, so a caller can read back and validate what it wrote before
// the rename. The temp file is named "."+base(path)+"-<random>" in
// path's directory. The rename is skipped — and the temp file removed —
// when fn fails or ctx is already cancelled by the time fn returns; a
// nil ctx skips the cancellation check.
func Write(ctx context.Context, path string, fn func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := fn(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return os.Rename(tmp.Name(), path)
}
