package xrand

import (
	"math"
	"runtime"
	"testing"
)

// geometricMeans are the means the generators draw gaps and runs from:
// each preset's first-miss gap, 1000/MissesPer1000Instr (apache,
// barnes-hut, ocean, oltp, slashcode, specjbb and the composed presets'
// 4), and the fixed burst-gap and migratory-run means.
var geometricMeans = []float64{1000 / 5.9, 1000 / 0.4, 1000 / 0.5, 1000 / 7.0, 1000 / 1.0, 1000 / 3.3, 1000 / 4.0, 4, 2}

// logDraw is the draw Geometric.Sample must equal for the 53-bit x:
// int(math.Log(u)/logP) for u = x/2^53, u = 0 taken as the smallest
// positive float64, 2^-1074, whose log is -1074·ln 2.
func logDraw(mean float64, x uint64) int {
	l := -1074 * math.Ln2
	if x != 0 {
		l = math.Log(float64(x) / (1 << 53))
	}
	k := int(l / math.Log(mean/(1+mean)))
	if k < 0 {
		k = 0
	}
	return k
}

// nearPower returns the 53-bit draw nearest p^k, where the draw's value
// crosses from k to k-1, and false once p^k is below the smallest
// positive draw.
func nearPower(mean float64, k int) (uint64, bool) {
	x := math.Round(math.Exp(float64(k)*math.Log(mean/(1+mean))) * (1 << 53))
	return uint64(x), x >= 1
}

// TestZeroDrawIsTheSameOnEveryPlatform: the draw at u = 0 and Max are
// -1074·ln 2 over log p, the log of the smallest positive float64
// computed exactly, at every generator mean. The math library's log of
// that subnormal is -709.09 on amd64 and -744.44 in pure Go, so a draw
// that took it would move Validate's lowest MissesPer1000Instr with the
// platform.
func TestZeroDrawIsTheSameOnEveryPlatform(t *testing.T) {
	for _, mean := range geometricMeans {
		g := NewGeometric(mean)
		want := -1074 * math.Ln2 / math.Log(mean/(1+mean))
		if got := g.Max(); got != want {
			t.Errorf("mean %v: Max %v, want %v", mean, got, want)
		}
		if got := g.sample(0); got != int(want) {
			t.Errorf("mean %v: the draw at u = 0 is %d, want %d", mean, got, int(want))
		}
	}
}

// TestGeometricMatchesLogNearPowers checks every draw within 64 of p^k
// for k < 5000 for each generator mean: the quotient lies closest to an
// integer there, where the guard band decides.
func TestGeometricMatchesLogNearPowers(t *testing.T) {
	for _, mean := range geometricMeans {
		g := NewGeometric(mean)
		for k := 0; k < 5000; k++ {
			c, ok := nearPower(mean, k)
			if !ok {
				break
			}
			for x := max(c, 64) - 64; x <= c+64 && x < 1<<53; x++ {
				if got, want := g.sample(x), logDraw(mean, x); got != want {
					t.Fatalf("mean %v, x %d (near p^%d): %d, want %d", mean, x, k, got, want)
				}
			}
		}
	}
}

// FuzzGeometricMatchesLog: a draw of the table-driven log equals the
// math library's int(math.Log(u)/logP) for any 53-bit draw and any mean
// from 0.5 to 1e7, and no draw exceeds Max.
func FuzzGeometricMatchesLog(f *testing.F) {
	for _, mean := range geometricMeans {
		for _, x := range []uint64{0, 1, 2, 1 << 52, 1<<53 - 1} {
			f.Add(x, mean)
		}
		for _, k := range []int{0, 1, 2, 3, 10, 100, 164, 1000, 4999} {
			if c, ok := nearPower(mean, k); ok {
				for _, d := range []uint64{0, 1, 64} {
					f.Add(c+d, mean)
					f.Add(max(c, d)-d, mean)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, x uint64, mean float64) {
		x %= 1 << 53
		if !(mean >= 0.5 && mean <= 1e7) {
			mean = 0.5 + math.Mod(math.Abs(mean), 1e7-0.5)
			if math.IsNaN(mean) {
				return
			}
		}
		g := NewGeometric(mean)
		got, want := g.sample(x), logDraw(mean, x)
		if got != want {
			t.Fatalf("mean %v, x %d: %d, want %d", mean, x, got, want)
		}
		if float64(got) > g.Max() {
			t.Fatalf("mean %v, x %d: %d exceeds Max %v", mean, x, got, g.Max())
		}
	})
}

// searchZipf is the sampler the guide table narrows: a binary search of
// the whole CDF for the first index whose value reaches u.
func searchZipf(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FuzzZipfGuideMatchesSearch: for any support size up to 2^17, exponent
// up to 4 and 53-bit draw, the guide-table sample equals the search of
// the whole CDF. The seeds cover n = 1, sizes below and above the
// guide's 4096 entries, the presets' StaticPCs and SharedUnits, and
// draws on the guide's interval boundaries, where an exponent so small
// that every weight is 1 puts CDF values of 2048 and 4096 entries on
// those boundaries exactly.
func FuzzZipfGuideMatchesSearch(f *testing.F) {
	ns := []uint32{1, 2, 17, 4095, 4096, 4097, 100_000, 18745, 7912, 11384, 21921, 42770, 24023, 700, 2500, 5000, 6000}
	thetas := []float64{0.6, 0.85, 0.9, 1.0, 1.15}
	for i, n := range ns {
		for j, x := range []uint64{0, 1, 1<<41 - 1, 1 << 41, 0xABC << 41, 1<<53 - 1} {
			f.Add(n, thetas[(i+j)%len(thetas)], x)
		}
	}
	for _, n := range []uint32{2048, 4096} {
		f.Add(n, 1e-300, uint64(0xABC)<<41)
	}
	f.Fuzz(func(t *testing.T, n uint32, theta float64, x uint64) {
		n = 1 + (n-1)%(1<<17)
		if !(theta > 0 && theta <= 4) {
			theta = math.Mod(math.Abs(theta), 4)
			if !(theta > 0) {
				return
			}
		}
		x %= 1 << 53
		z := NewZipf(int(n), theta)
		if got, want := z.sample(x), searchZipf(z.t.cdf, float64(x)/(1<<53)); got != want {
			t.Fatalf("n %d, theta %v, x %d: %d, want %d", n, theta, x, got, want)
		}
	})
}

// TestZipfSharesTables: samplers of one (n, s) built while another is
// alive share its CDF and guide; another (n, s) gets its own.
func TestZipfSharesTables(t *testing.T) {
	a, b := NewZipf(1000, 0.9), NewZipf(1000, 0.9)
	if a.t != b.t || &a.t.cdf[0] != &b.t.cdf[0] {
		t.Error("two samplers of one (n, s) hold two tables")
	}
	if c, d := NewZipf(1000, 0.8), NewZipf(999, 0.9); c.t == a.t || d.t == a.t {
		t.Error("samplers of another (n, s) share a table")
	}
	runtime.KeepAlive(a)
}
