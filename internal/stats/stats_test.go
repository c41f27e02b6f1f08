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
	if h.Total() != 10 {
		t.Errorf("Total = %d, want 10", h.Total())
	}
	if h.Count(2) != 2 {
		t.Errorf("Count(2) = %d, want 2", h.Count(2))
	}
	if got := h.Percent(4); got != 70 {
		t.Errorf("Percent(4) = %v, want 70", got)
	}
	if got := h.PercentAtLeast(2); got != 90 {
		t.Errorf("PercentAtLeast(2) = %v, want 90", got)
	}
	if h.Max() != 4 {
		t.Errorf("Max = %d, want 4", h.Max())
	}
	h.Reset()
	if h.Total() != 0 || h.Max() != -1 || len(h.Buckets()) != 5 {
		t.Errorf("after Reset: Total = %d, Max = %d, %d buckets; want 0, -1, 5", h.Total(), h.Max(), len(h.Buckets()))
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(3)
	h.Add(99) // clamps to 3
	h.Add(-5) // clamps to 0
	if h.Count(3) != 1 || h.Count(0) != 1 {
		t.Errorf("clamping failed: buckets=%v", h.Buckets())
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(10)
	h.AddN(2, 5)
	h.AddN(4, 5)
	if got := h.Mean(); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
	empty := NewHistogram(5)
	if empty.Mean() != 0 || empty.Max() != -1 {
		t.Error("empty histogram Mean/Max wrong")
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
	if c.Keys() != 3 || c.Total() != 100 {
		t.Errorf("Keys=%d Total=%d", c.Keys(), c.Total())
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

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Append(4)
	if c.Value() != 5 {
		t.Errorf("Counter = %d, want 5", c.Value())
	}
}

func TestRatioPerMiss(t *testing.T) {
	if Ratio(1, 4) != 25 {
		t.Error("Ratio(1,4) != 25")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
	if PerMiss(6, 3) != 2 {
		t.Error("PerMiss(6,3) != 2")
	}
	if PerMiss(6, 0) != 0 {
		t.Error("PerMiss with zero denominator should be 0")
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

func TestFormatScatter(t *testing.T) {
	s := []Series{{Name: "Owner", Points: []Point{{Label: "8192", X: 2.1, Y: 20.5}}}}
	out := FormatScatter(s, "msgs/miss", "indirections%")
	for _, want := range []string{"Owner", "8192", "2.10", "20.50", "msgs/miss"} {
		if !strings.Contains(out, want) {
			t.Errorf("scatter output missing %q:\n%s", want, out)
		}
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
