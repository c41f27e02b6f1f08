package ingest

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"destset/internal/trace"
)

// FuzzParseLine drives Import's per-line layer, splitLine then
// parseFields, on one line of either format (text picks the
// whitespace format) at line 1 or, unless first, line 2. Neither may
// panic; an accepted line, rendered back in its format, must parse to
// the same access; and a line 1 that parseFields accepts must not be
// skipped as a CSV header. Seeds live in testdata/fuzz/FuzzParseLine:
// both formats, a header, a comment, hex and decimal addresses and
// every op dialect.
func FuzzParseLine(f *testing.F) {
	f.Fuzz(func(t *testing.T, line string, text, first bool) {
		format, lineNo := FormatCSV, 2
		if text {
			format = FormatText
		}
		if first {
			lineNo = 1
		}
		fields, skip := splitLine(lineNo, format, line)
		if first {
			// No line but the first is taken for a header, so line 2
			// gives the fields the line has as a record.
			record, _ := splitLine(2, format, line)
			if _, err := parseFields(1, format, record); err == nil && skip {
				t.Fatalf("line 1 %q parses as a record but is skipped as a header", line)
			}
		}
		if skip {
			return
		}
		a, err := parseFields(lineNo, format, fields)
		if err != nil {
			return
		}
		again := render(a, format)
		fields, skip = splitLine(lineNo, format, again)
		b, err := parseFields(lineNo, format, fields)
		if skip || err != nil || b != a {
			t.Fatalf("%q parses to %+v, but rendered back as %q it parses to %+v (skip %t, %v)", line, a, again, b, skip, err)
		}
	})
}

// render writes a as a line of format f, as Export writes a record: the
// byte address addr*64 in hex, op r or w, and the pc and gap when the
// parsed line had them.
func render(a access, f Format) string {
	op := "r"
	if a.store {
		op = "w"
	}
	addr, cpu := fmt.Sprintf("%#x", uint64(a.addr)*trace.BlockBytes), strconv.Itoa(a.cpu)
	fields, sep := []string{addr, cpu, op}, ","
	if f == FormatText {
		fields, sep = []string{addr, op, cpu}, " "
	}
	if a.hasPC {
		fields = append(fields, fmt.Sprintf("%#x", uint64(a.pc)))
	}
	if a.gap != 0 {
		fields = append(fields, strconv.FormatUint(uint64(a.gap), 10))
	}
	return strings.Join(fields, sep)
}
