package stats

import (
	"strings"
	"testing"

	"repro/internal/clock"
)

func TestAdditionalACTRatio(t *testing.T) {
	var c Counters
	if got := c.AdditionalACTRatio(); got != 0 {
		t.Errorf("empty ratio = %v, want 0", got)
	}
	c.NormalACTs = 32768
	c.DefenseACTs = 2
	want := 2.0 / 32768.0
	if got := c.AdditionalACTRatio(); got != want {
		t.Errorf("ratio = %v, want %v (the paper's 0.006%% S3 figure)", got, want)
	}
}

func TestLatencyAccounting(t *testing.T) {
	var c Counters
	c.AddLatency(100 * clock.Nanosecond)
	c.AddLatency(300 * clock.Nanosecond)
	if got := c.AvgLatency(); got != 200*clock.Nanosecond {
		t.Errorf("avg latency = %v, want 200ns", got)
	}
	if c.MaxLatency != 300*clock.Nanosecond {
		t.Errorf("max latency = %v, want 300ns", c.MaxLatency)
	}
	var empty Counters
	if empty.AvgLatency() != 0 {
		t.Error("empty avg latency must be 0")
	}
}

func TestRowHitRate(t *testing.T) {
	var c Counters
	if c.RowHitRate() != 0 {
		t.Error("empty hit rate must be 0")
	}
	c.RowHits, c.RowMisses, c.RowConflicts = 6, 3, 1
	if got := c.RowHitRate(); got != 0.6 {
		t.Errorf("hit rate = %v, want 0.6", got)
	}
}

func TestCountersString(t *testing.T) {
	c := Counters{NormalACTs: 1000, DefenseACTs: 1}
	s := c.String()
	if !strings.Contains(s, "ACTs=1000") || !strings.Contains(s, "0.1000%") {
		t.Errorf("String() = %q", s)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10, 100, 1000)
	for _, v := range []int64{1, 5, 10, 11, 99, 100, 5000} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Max() != 5000 {
		t.Errorf("max = %d", h.Max())
	}
	wantMean := float64(1+5+10+11+99+100+5000) / 7
	if got := h.Mean(); got != wantMean {
		t.Errorf("mean = %v, want %v", got, wantMean)
	}
}

func TestHistogramBadBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds did not panic")
		}
	}()
	NewHistogram(10, 10)
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram(10, 100)
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)
	s := h.String()
	for _, want := range []string{"n=3", "≤10:1", "≤100:1", ">100:1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
