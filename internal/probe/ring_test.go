package probe

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/clock"
)

// ringRec builds a tracing recorder on a 2-channel, 8-bank topology whose
// flight recorder keeps k windows of w simulated time each.
func ringRec(w clock.Time, k int) *Recorder {
	r := NewRecorder()
	r.trace = newRing(k)
	r.Attach(2, 8, w)
	return r
}

// indexes returns the trace's retained window indexes in ascending order.
func indexes(r *Recorder) []int64 {
	out := make([]int64, len(r.trace.wins))
	for i := range r.trace.wins {
		out[i] = r.trace.wins[i].idx
	}
	return out
}

// tally is a trace's event accounting: retained events, dropped events,
// dropped windows, and total events offered.
func tally(r *Recorder) [4]int64 {
	g := r.trace
	return [4]int64{int64(g.retained), g.droppedEvents, g.droppedWindows, g.total}
}

// events returns the trace's retained events in export order.
func events(r *Recorder) []Event {
	var out []Event
	for i := range r.trace.wins {
		out = append(out, r.trace.wins[i].events...)
	}
	return out
}

func TestRingEvictsOldestWindows(t *testing.T) {
	const win = clock.Time(100)
	r := ringRec(win, 3)
	// One ACT per window 0..5; ring of 3 should keep 3, 4, 5.
	for i := 0; i < 6; i++ {
		r.ACT(i, clock.Time(i)*win+1)
	}
	if got, want := indexes(r), []int64{3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("window indexes = %v, want %v", got, want)
	}
	if got, want := tally(r), [4]int64{3, 3, 3, 6}; got != want {
		t.Errorf("retained/dropped/dropped windows/total = %v, want %v", got, want)
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
	// Retained: two survivors + the late in-ring nack; dropped: the evicted
	// ACT + the late ACT.
	if got, want := tally(r), [4]int64{3, 2, 1, 5}; got != want {
		t.Errorf("retained/dropped/dropped windows/total = %v, want %v", got, want)
	}
	if got, want := indexes(r), []int64{1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("window indexes = %v, want %v", got, want)
	}
}

func TestDetectionPinsRing(t *testing.T) {
	const win = clock.Time(100)
	r := ringRec(win, 2)
	r.ACT(0, 50)  // window 0
	r.ACT(0, 150) // window 1
	r.Detection(0, 3, 160)
	if !r.trace.pinned {
		t.Fatal("detection did not pin the ring")
	}
	// New windows past the ring capacity must NOT evict the pre-detection ring.
	r.ACT(0, 250)
	r.ACT(0, 350)
	if got, want := indexes(r), []int64{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("window indexes after pin = %v, want %v", got, want)
	}
	if got, want := tally(r), [4]int64{5, 0, 0, 5}; got != want {
		t.Errorf("retained/dropped/dropped windows/total = %v, want %v", got, want)
	}
}

func TestMaxEventsCapStillCounts(t *testing.T) {
	r := NewRecorder()
	r.trace = newRing(0)
	r.trace.eventCap = 4
	for i := 0; i < 10; i++ {
		r.ACT(0, clock.Time(i))
	}
	if got, want := tally(r), [4]int64{4, 6, 0, 10}; got != want {
		t.Errorf("retained/dropped/dropped windows/total = %v, want %v", got, want)
	}
}

func TestFullTraceModeSingleWindow(t *testing.T) {
	r := NewRecorder()
	r.trace = newRing(0) // K = 0: ring off
	r.Attach(1, 1, 100)
	for i := 0; i < 5; i++ {
		r.ACT(0, clock.Time(i)*1000)
	}
	if got, want := indexes(r), []int64{0}; !reflect.DeepEqual(got, want) {
		t.Errorf("window indexes = %v, want %v", got, want)
	}
	if got, want := tally(r), [4]int64{5, 0, 0, 5}; got != want {
		t.Errorf("retained/dropped/dropped windows/total = %v, want %v", got, want)
	}
}

func TestEventsExportOrder(t *testing.T) {
	const win = clock.Time(100)
	r := ringRec(win, 4)
	r.ACT(0, 250) // window 2
	r.ACT(1, 50)  // window 0 (late arrival, still in ring)
	r.ACT(2, 150) // window 1
	evs := events(r)
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
	r.ACT(0, 10)
	r.ARR(5, 20)
	r.ARRQueued(5, 2, 21)
	r.Nack(1, 30)
	r.Dequeue(0, 3, 15_000, 40)
	r.Spill(2, 50)
	r.TableTick(3, 7, 1, 60)
	r.TableTick(3, 6, 0, 61) // counter-only sample (no invalidations)
	r.Refresh(1, 70)
	r.Detection(6, 2, 80)

	var g Collector
	g.Start(2)
	g.Record(0, CellLabel{Workload: "s1", Defense: "twice"}, r)
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
	// ts rendering is integer ps->µs: the request at T=40 ps renders as
	// "0.000040".
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
	var g Collector
	g.Start(1)
	g.Record(0, CellLabel{Workload: "w", Defense: "d"}, r)
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
