package stats

import (
	"strings"
	"testing"
)

// TestAvgLatencyZeroRequests pins the division guard: a run that served
// nothing reports average latency 0 rather than dividing by zero, even when
// stray TotalLatency is present.
func TestAvgLatencyZeroRequests(t *testing.T) {
	var c Counters
	if got := c.AvgLatency(); got != 0 {
		t.Errorf("AvgLatency of zero counters = %v, want 0", got)
	}
	c.TotalLatency = 12345 // inconsistent input must still not panic
	if got := c.AvgLatency(); got != 0 {
		t.Errorf("AvgLatency with no served requests = %v, want 0", got)
	}
	c.AddLatency(100)
	c.AddLatency(200)
	if got := c.AvgLatency(); got != 6322 { // (12345+300)/2 with the stray total
		t.Errorf("AvgLatency = %v, want 6322", got)
	}
}

// TestCountersStringEmptyRun pins String on the zero value: every field
// renders as zero, the ratio renders 0.0000% (no NaN from 0/0), and the
// format stays machine-greppable.
func TestCountersStringEmptyRun(t *testing.T) {
	var c Counters
	got := c.String()
	want := "ACTs=0 +0 (0.0000%) reads=0 writes=0 refreshes=0 ARRs=0 nacks=0 detections=0 flips=0"
	if got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if strings.Contains(got, "NaN") {
		t.Error("zero-run String rendered NaN")
	}
}
