package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(4)
	h.Add(0)
	h.Add(2)
	h.Add(2)
	h.AddN(4, 7)
	if h.Count(2) != 2 {
		t.Errorf("Count(2) = %d, want 2", h.Count(2))
	}
	if got := h.Percent(4); got != 70 {
		t.Errorf("Percent(4) = %v, want 70", got)
	}
	if got := h.PercentAtLeast(2); got != 90 {
		t.Errorf("PercentAtLeast(2) = %v, want 90", got)
	}
	if h.Quantile(1) != 4 {
		t.Errorf("Quantile(1) = %d, want 4", h.Quantile(1))
	}
	h.Reset()
	if h.Count(2) != 0 || h.Percent(4) != 0 || h.Quantile(0.5) != -1 {
		t.Errorf("after Reset: Count(2) = %d, Percent(4) = %v, Quantile(0.5) = %d; want 0, 0, -1", h.Count(2), h.Percent(4), h.Quantile(0.5))
	}
	// The range survives Reset: the top bucket still takes 4.
	h.Add(4)
	if h.Count(4) != 1 || h.Percent(4) != 100 {
		t.Errorf("after Reset and Add(4): Count(4) = %d, Percent(4) = %v; want 1, 100", h.Count(4), h.Percent(4))
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(3)
	h.Add(99) // clamps to 3
	h.Add(-5) // clamps to 0
	if h.Count(3) != 1 || h.Count(0) != 1 || h.Percent(3) != 50 {
		t.Errorf("clamping failed: Count(0) = %d, Count(3) = %d, Percent(3) = %v", h.Count(0), h.Count(3), h.Percent(3))
	}
}

func TestHistogramOutOfRangeCount(t *testing.T) {
	h := NewHistogram(2)
	if h.Count(-1) != 0 || h.Count(7) != 0 {
		t.Error("out-of-range Count should be 0")
	}
}

func TestConcentration(t *testing.T) {
	c := NewConcentration()
	// Key 1: 80 events, key 2: 15, key 3: 5.
	for i := 0; i < 80; i++ {
		c.Add(1)
	}
	for i := 0; i < 15; i++ {
		c.Add(2)
	}
	for i := 0; i < 5; i++ {
		c.Add(3)
	}
	got := c.CumulativePercent([]int{0, 1, 2, 3, 100})
	want := []float64{0, 80, 95, 100, 100}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("CumulativePercent[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestConcentrationEmpty(t *testing.T) {
	c := NewConcentration()
	got := c.CumulativePercent([]int{0, 10})
	if got[0] != 0 || got[1] != 0 {
		t.Errorf("empty concentration should report 0, got %v", got)
	}
}

func TestConcentrationMonotone(t *testing.T) {
	f := func(keys []uint8) bool {
		c := NewConcentration()
		for _, k := range keys {
			c.Add(uint64(k))
		}
		ns := []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
		got := c.CumulativePercent(ns)
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1]-1e-9 {
				return false
			}
		}
		return len(keys) == 0 || got[len(got)-1] > 99.999
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatioPerMiss(t *testing.T) {
	if Ratio(1, 4) != 25 {
		t.Error("Ratio(1,4) != 25")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("name", "value")
	tbl.AddRow("apache", 5.9)
	tbl.AddRow("ocean", 58.0)
	out := tbl.String()
	if !strings.Contains(out, "apache") || !strings.Contains(out, "5.90") {
		t.Errorf("table missing cells:\n%s", out)
	}
	if !strings.Contains(out, "58") {
		t.Errorf("whole floats should render without decimals:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("expected 4 lines, got %d:\n%s", len(lines), out)
	}
}

// Property: histogram Percent sums to ~100 over all buckets.
func TestQuickHistogramPercents(t *testing.T) {
	f := func(values []uint8) bool {
		if len(values) == 0 {
			return true
		}
		h := NewHistogram(16)
		for _, v := range values {
			h.Add(int(v % 17))
		}
		sum := 0.0
		for v := 0; v <= 16; v++ {
			sum += h.Percent(v)
		}
		return math.Abs(sum-100) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
