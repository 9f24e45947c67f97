package probe

import (
	"reflect"
	"testing"

	"repro/internal/clock"
)

func TestRecorderTotals(t *testing.T) {
	r := NewRecorder()
	r.Attach(1, 2, clock.Microsecond)
	r.ACT(0, 10)
	r.ACT(1, 20)
	r.ARR(0, 30)
	r.ARRQueued(0, 1, 25)
	r.Nack(0, 40)
	r.Enqueue(3)
	r.Dequeue(0, 2, 400, 450)
	r.Spill(1, 60)
	r.TableTick(0, 5, 2, 70)
	r.Refresh(0, 80)
	r.Detection(1, 3, 90)

	want := EventTotals{
		ACTs: 2, ARRs: 1, ARRsQueued: 1, Nacks: 1, Refreshes: 1,
		Enqueues: 1, Dequeues: 1, TableTicks: 1, EntriesPruned: 2, Spills: 1,
		Detections: 1,
	}
	if got := r.Totals(); got != want {
		t.Errorf("totals = %+v, want %+v", got, want)
	}
	if got := r.MaxOccupancy(); got != 5 {
		t.Errorf("MaxOccupancy = %d, want 5", got)
	}
	if got := r.OccupancySeries(); len(got) != 1 || got[0] != (OccSample{T: 70, Bank: 0, Occupancy: 5, Pruned: 2}) {
		t.Errorf("occupancy series = %+v", got)
	}
}

func TestInterARRDistance(t *testing.T) {
	r := NewRecorder()
	r.Attach(1, 2, 0)
	// First ARR on a bank has no predecessor; only same-bank pairs count.
	r.ARR(0, 1000)
	r.ARR(1, 2000)
	r.ARR(0, 5000)
	s := r.Snapshot()
	var inter HistogramSnapshot
	for _, h := range s.Histograms {
		if h.Name == "inter_arr_ps" {
			inter = h
		}
	}
	if inter.Total != 1 {
		t.Fatalf("inter-ARR observations = %d, want 1 (only the same-bank pair)", inter.Total)
	}
	if inter.Max != 4000 {
		t.Errorf("inter-ARR max = %d, want 4000", inter.Max)
	}
}

func TestTableTickSampleCap(t *testing.T) {
	r := NewRecorder()
	r.Attach(1, 1, 0)
	r.sampleCap = 2
	for i := 0; i < 5; i++ {
		r.TableTick(0, i, 0, clock.Time(i))
	}
	if got := len(r.OccupancySeries()); got != 2 {
		t.Errorf("series length = %d, want the sample cap of 2", got)
	}
	if got := r.dropped; got != 3 {
		t.Errorf("dropped = %d, want 3", got)
	}
	// The high-water mark keeps tracking past the cap.
	if got := r.MaxOccupancy(); got != 4 {
		t.Errorf("MaxOccupancy = %d, want 4", got)
	}
}

func TestGaugeSampling(t *testing.T) {
	r := NewRecorder()
	r.Attach(1, 1, 100)
	v := int64(0)
	r.AddGauge("g", func() int64 { return v })

	v = 1
	r.MaybeSample(0) // crosses the initial boundary at t=0
	v = 2
	r.MaybeSample(50) // within the period: no sample
	v = 3
	r.MaybeSample(100) // next boundary
	v = 4
	r.MaybeSample(150)
	v = 5
	r.MaybeSample(260) // skipped past 200; boundary advances beyond now

	s := r.Snapshot()
	if len(s.Gauges) != 1 || s.Gauges[0].Name != "g" {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	want := []GaugePoint{{T: 0, V: 1}, {T: 100, V: 3}, {T: 260, V: 5}}
	if !reflect.DeepEqual(s.Gauges[0].Samples, want) {
		t.Errorf("samples = %+v, want %+v", s.Gauges[0].Samples, want)
	}
	// Refresh now only counts; it never drives sampling.
	r.Refresh(0, 300)
	if r.Totals().Refreshes != 1 {
		t.Errorf("refreshes = %d, want 1", r.Totals().Refreshes)
	}
	if got := len(r.Snapshot().Gauges[0].Samples); got != 3 {
		t.Errorf("Refresh added a gauge sample: %d points, want 3", got)
	}
}

func TestAddGaugeReplacementKeepsSeries(t *testing.T) {
	r := NewRecorder()
	r.Attach(1, 1, 10)
	r.AddGauge("g", func() int64 { return 1 })
	r.MaybeSample(0)
	// Re-registration (machine re-attachment) swaps the sampler but the
	// recorded series continues.
	r.AddGauge("g", func() int64 { return 2 })
	r.MaybeSample(10)
	s := r.Snapshot()
	want := []GaugePoint{{T: 0, V: 1}, {T: 10, V: 2}}
	if len(s.Gauges) != 1 || !reflect.DeepEqual(s.Gauges[0].Samples, want) {
		t.Errorf("gauges = %+v, want one series %+v", s.Gauges, want)
	}
}

// TestAttachKeepsStateOnSameTopology pins re-attachment: attaching the
// recorder again to a machine of the same shape keeps per-bank state, so
// the inter-ARR distance spans the two attachments.
func TestAttachKeepsStateOnSameTopology(t *testing.T) {
	r := NewRecorder()
	r.ARR(3, 50) // unattached: no per-bank state yet, only the total counts
	r.Attach(1, 4, 0)
	r.ARR(3, 100)
	r.Attach(1, 4, 0)
	r.ARR(3, 300)
	if got := r.Totals().ARRs; got != 3 {
		t.Errorf("ARRs = %d, want 3", got)
	}
	for _, h := range r.Snapshot().Histograms {
		if h.Name == "inter_arr_ps" && (h.Total != 1 || h.Max != 200) {
			t.Errorf("inter-ARR total %d max %d, want 1 observation of 200 (per-bank state survives)", h.Total, h.Max)
		}
	}
}

func TestSnapshotIsDetached(t *testing.T) {
	r := NewRecorder()
	r.Attach(1, 1, 0)
	r.TableTick(0, 3, 1, 10)
	s := r.Snapshot()
	r.TableTick(0, 9, 0, 20)
	r.ACT(0, 30)
	if len(s.Occupancy) != 1 || s.Events.ACTs != 0 {
		t.Errorf("snapshot mutated by later recording: %+v", s)
	}
}
