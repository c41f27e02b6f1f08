package trace

import (
	"bytes"
	"math/rand"
	"testing"
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
