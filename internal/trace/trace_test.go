package trace

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if GetShared.String() != "GETS" || GetExclusive.String() != "GETX" {
		t.Error("Kind mnemonics wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown Kind should format numerically")
	}
}

func TestMacroblock(t *testing.T) {
	// 1024-byte macroblocks span 16 64-byte blocks.
	if BlocksPerMacroblock != 16 {
		t.Fatalf("BlocksPerMacroblock = %d", BlocksPerMacroblock)
	}
	cases := []struct {
		addr Addr
		size int
		want Addr
	}{
		{0, 1024, 0},
		{15, 1024, 0},
		{16, 1024, 1},
		{31, 1024, 1},
		{7, 256, 1}, // 256B = 4 blocks
		{3, 256, 0},
		{5, 64, 5}, // 64B macroblock is the identity
	}
	for _, c := range cases {
		if got := Macroblock(c.addr, c.size); got != c.want {
			t.Errorf("Macroblock(%d, %d) = %d, want %d", c.addr, c.size, got, c.want)
		}
	}
}

// TestMacroblockShiftMatchesDivision pins Macroblock's shift for
// power-of-two block counts to the plain division, and checks sizes
// whose block count is not a power of two still divide, over random
// addresses and addresses at and above 2^40.
func TestMacroblockShiftMatchesDivision(t *testing.T) {
	sizes := []int{192, 320}
	for size := 64; size <= 4096; size *= 2 {
		sizes = append(sizes, size)
	}
	rng := rand.New(rand.NewSource(1))
	addrs := []Addr{0, 1, 1 << 40, 1<<40 + 17, 1<<63 + 5, ^Addr(0)}
	for i := 0; i < 1000; i++ {
		addrs = append(addrs, Addr(rng.Uint64()), Addr(1<<40+rng.Uint64()%(1<<40)))
	}
	for _, size := range sizes {
		n := Addr(size / BlockBytes)
		for _, a := range addrs {
			if got, want := Macroblock(a, size), a/n; got != want {
				t.Fatalf("Macroblock(%#x, %d) = %#x, want %#x", uint64(a), size, uint64(got), uint64(want))
			}
		}
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Addr: 0x10, PC: 0x400, Requester: 3, Kind: GetExclusive, Gap: 12}
	s := r.String()
	for _, want := range []string{"GETX", "p3", "0x10", "0x400", "gap=12"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("Record.String() = %q missing %q", s, want)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	orig := &Trace{Nodes: 16}
	orig.Append(Record{Addr: 100, PC: 0x1000, Requester: 0, Kind: GetShared, Gap: 50})
	orig.Append(Record{Addr: 101, PC: 0x1004, Requester: 1, Kind: GetExclusive, Gap: 0})
	orig.Append(Record{Addr: 50, PC: 0x2000, Requester: 15, Kind: GetShared, Gap: 1 << 30})
	orig.Append(Record{Addr: 1 << 40, PC: 1 << 50, Requester: 7, Kind: GetExclusive, Gap: 3})

	var buf bytes.Buffer
	if err := WriteAll(&buf, orig); err != nil {
		t.Fatalf("WriteAll: %v", err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Nodes() != 16 {
		t.Errorf("Nodes = %d, want 16", r.Nodes())
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("length %d != %d", got.Len(), orig.Len())
	}
	for i := range orig.Records {
		if got.Records[i] != orig.Records[i] {
			t.Errorf("record %d: %v != %v", i, got.Records[i], orig.Records[i])
		}
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, &Trace{Nodes: 4}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil || got.Len() != 0 || got.Nodes != 4 {
		t.Errorf("empty trace round-trip: %v len=%d nodes=%d", err, got.Len(), got.Nodes)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXXXX"))); err != ErrBadFormat {
		t.Errorf("bad magic: err = %v, want ErrBadFormat", err)
	}
}

func TestBadVersion(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{'D', 'S', 'P', 'T', 99, 16})); err != ErrBadFormat {
		t.Errorf("bad version: err = %v, want ErrBadFormat", err)
	}
}

func TestShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("DS"))); err == nil {
		t.Error("short header should error")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	orig := &Trace{Nodes: 2}
	orig.Append(Record{Addr: 5, PC: 5, Requester: 1, Kind: GetShared, Gap: 5})
	if err := WriteAll(&buf, orig); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	r, err := NewReader(bytes.NewReader(data[:len(data)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated record: err = %v, want ErrUnexpectedEOF", err)
	}
}

func TestStreamingReadMatchesReadAll(t *testing.T) {
	orig := &Trace{Nodes: 8}
	for i := 0; i < 100; i++ {
		orig.Append(Record{
			Addr:      Addr(i * 37 % 64),
			PC:        PC(i % 10),
			Requester: uint8(i % 8),
			Kind:      Kind(i % 2),
			Gap:       uint32(i),
		})
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, orig); err != nil {
		t.Fatal(err)
	}
	r, _ := NewReader(bytes.NewReader(buf.Bytes()))
	for i := 0; ; i++ {
		rec, err := r.Read()
		if err == io.EOF {
			if i != 100 {
				t.Fatalf("EOF after %d records, want 100", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec != orig.Records[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// Property: arbitrary record sequences round-trip exactly.
func TestQuickRoundTrip(t *testing.T) {
	f := func(addrs []uint32, pcs []uint16, kinds []bool) bool {
		n := len(addrs)
		if len(pcs) < n {
			n = len(pcs)
		}
		if len(kinds) < n {
			n = len(kinds)
		}
		orig := &Trace{Nodes: 16}
		for i := 0; i < n; i++ {
			k := GetShared
			if kinds[i] {
				k = GetExclusive
			}
			orig.Append(Record{
				Addr:      Addr(addrs[i]),
				PC:        PC(pcs[i]),
				Requester: uint8(addrs[i] % 16),
				Kind:      k,
				Gap:       uint32(pcs[i]),
			})
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, orig); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.ReadAll()
		if err != nil || got.Len() != orig.Len() {
			return false
		}
		for i := range orig.Records {
			if got.Records[i] != orig.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
