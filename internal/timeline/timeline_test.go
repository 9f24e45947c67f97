package timeline

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/clock"
)

// ringRec builds a flight recorder with w-long windows and k of them.
func ringRec(w clock.Time, k int) *Recorder {
	r := NewRecorder(Config{Window: w, Windows: k})
	r.SetTopology(2, 8)
	return r
}

func indexes(r *Recorder) []int64 { return r.WindowIndexes() }

func TestRingEvictsOldestWindows(t *testing.T) {
	const win = clock.Time(100)
	r := ringRec(win, 3)
	// One ACT per window 0..5; ring of 3 should keep 3, 4, 5.
	for i := 0; i < 6; i++ {
		r.ACT(i, clock.Time(i)*win+1)
	}
	got := indexes(r)
	want := []int64{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("window indexes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window indexes = %v, want %v", got, want)
		}
	}
	if r.Retained() != 3 {
		t.Errorf("Retained = %d, want 3", r.Retained())
	}
	if r.DroppedEvents() != 3 {
		t.Errorf("DroppedEvents = %d, want 3", r.DroppedEvents())
	}
	if r.DroppedWindows() != 3 {
		t.Errorf("DroppedWindows = %d, want 3", r.DroppedWindows())
	}
	if r.Total() != 6 {
		t.Errorf("Total = %d, want 6", r.Total())
	}
}

func TestRingDropsEventsBehindEviction(t *testing.T) {
	const win = clock.Time(100)
	r := ringRec(win, 2)
	r.ACT(0, 50)   // window 0
	r.ACT(0, 150)  // window 1
	r.ACT(0, 250)  // window 2 -> evicts window 0
	r.ACT(1, 10)   // late event in evicted window 0: dropped
	r.Nack(0, 120) // window 1 still retained: accepted out of order
	if got := r.Retained(); got != 3 {
		t.Errorf("Retained = %d, want 3 (two survivors + late in-ring nack)", got)
	}
	if got := r.DroppedEvents(); got != 2 {
		t.Errorf("DroppedEvents = %d, want 2 (evicted ACT + late ACT)", got)
	}
	got := indexes(r)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("window indexes = %v, want [1 2]", got)
	}
}

func TestDetectionPinsRing(t *testing.T) {
	const win = clock.Time(100)
	r := ringRec(win, 2)
	r.ACT(0, 50)  // window 0
	r.ACT(0, 150) // window 1
	r.Detect(0, 3, 160)
	if pinned, at := r.Pinned(); !pinned || at != 160 {
		t.Fatalf("Pinned = %v @%d, want true @160", pinned, at)
	}
	// New windows past the ring capacity must NOT evict the pre-detection ring.
	r.ACT(0, 250)
	r.ACT(0, 350)
	got := indexes(r)
	if len(got) != 4 || got[0] != 0 || got[3] != 3 {
		t.Errorf("window indexes after pin = %v, want [0 1 2 3]", got)
	}
	if r.DroppedWindows() != 0 {
		t.Errorf("DroppedWindows = %d, want 0 after pin", r.DroppedWindows())
	}
}

func TestMaxEventsCapStillCounts(t *testing.T) {
	r := NewRecorder(Config{MaxEvents: 4})
	for i := 0; i < 10; i++ {
		r.ACT(0, clock.Time(i))
	}
	if r.Retained() != 4 {
		t.Errorf("Retained = %d, want 4", r.Retained())
	}
	if r.DroppedEvents() != 6 {
		t.Errorf("DroppedEvents = %d, want 6", r.DroppedEvents())
	}
	if r.Total() != 10 {
		t.Errorf("Total = %d, want 10", r.Total())
	}
}

func TestFullTraceModeSingleWindow(t *testing.T) {
	r := NewRecorder(Config{}) // Windows=0: ring off
	r.SetDefaultWindow(clock.Time(100))
	for i := 0; i < 5; i++ {
		r.ACT(0, clock.Time(i)*1000)
	}
	if got := indexes(r); len(got) != 1 || got[0] != 0 {
		t.Errorf("window indexes = %v, want [0]", got)
	}
	if r.Retained() != 5 || r.DroppedEvents() != 0 {
		t.Errorf("Retained/Dropped = %d/%d, want 5/0", r.Retained(), r.DroppedEvents())
	}
}

func TestEventsExportOrder(t *testing.T) {
	const win = clock.Time(100)
	r := ringRec(win, 4)
	r.ACT(0, 250) // window 2
	r.ACT(1, 50)  // window 0 (late arrival, still in ring)
	r.ACT(2, 150) // window 1
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Events len = %d, want 3", len(evs))
	}
	// Window order first, arrival order within a window.
	wantBanks := []int32{1, 2, 0}
	for i, e := range evs {
		if e.Bank != wantBanks[i] {
			t.Errorf("event %d bank = %d, want %d", i, e.Bank, wantBanks[i])
		}
	}
}

func TestWriteTraceValidAndDeterministic(t *testing.T) {
	r := ringRec(clock.Time(1000), 0)
	r.SetTopology(2, 8)
	r.ACT(0, 10)
	r.ARR(5, 20)
	r.ARRQueued(5, 2, 21)
	r.Nack(1, 30)
	r.Request(0, 3, 15_000, 40)
	r.Spill(2, 50)
	r.Prune(3, 7, 1, 60)
	r.Prune(3, 6, 0, 61) // counter-only sample (no invalidations)
	r.Refresh(1, 70)
	r.Detect(6, 2, 80)

	var g Grid
	g.Start(2)
	g.Record(0, "s1", "twice", r)
	// Cell 1 intentionally empty: export must skip it.

	var a, b bytes.Buffer
	if err := g.WriteTrace(&a); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	if err := g.WriteTrace(&b); err != nil {
		t.Fatalf("WriteTrace (second): %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("WriteTrace is not deterministic across calls")
	}
	if !json.Valid(a.Bytes()) {
		t.Fatalf("WriteTrace output is not valid JSON:\n%s", a.String())
	}
	out := a.String()
	for _, want := range []string{
		`"displayTimeUnit":"ns"`,
		`"traceEvents":[`,
		`"name":"ACT"`,
		`"name":"DETECT"`,
		`"s":"p"`, // detection is a process-scoped instant
		`"twice_occupancy b3","ph":"C"`,
		`cell0 s1/twice ch0`,
		`cell0 s1/twice ch1`,
		`"latency_ps":15000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
	// ts rendering is integer ps->µs: 15 ps -> 0.000015 µs... actually
	// event T=40 ps -> "0.000040".
	if !strings.Contains(out, `"ts":0.000040`) {
		t.Errorf("trace missing ps-exact timestamp 0.000040:\n%s", out)
	}
	if g.Cells() != 1 {
		t.Errorf("Cells = %d, want 1", g.Cells())
	}
}

func TestWriteTraceFlightRecorderHeaderCountsDrops(t *testing.T) {
	r := ringRec(clock.Time(100), 1)
	r.ACT(0, 50)
	r.ACT(0, 150) // evicts window 0
	var g Grid
	g.Start(1)
	g.Record(0, "w", "d", r)
	var buf bytes.Buffer
	if err := g.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"dropped_events":"1"`) || !strings.Contains(out, `"dropped_windows":"1"`) {
		t.Errorf("header does not report drops:\n%s", out)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("trace is not valid JSON")
	}
}
