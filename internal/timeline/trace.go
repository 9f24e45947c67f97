// Chrome trace-event / Perfetto JSON export of the simulated-time clock.
// The writer is hand-formatted — field order, separators, and timestamp
// rendering are all explicit — because the export is pinned byte-identical
// across serial and parallel grid runs and across commits: nothing here may
// depend on map iteration or floating-point formatting. Timestamps are microseconds (the
// trace-event unit) rendered by integer math as "<µs>.<6 digits>", which is
// exact picosecond precision straight from clock.Time.
//
// Track model: one trace-event process per (cell, channel) pair
// (pid = cell*pidStride + channel), one thread per bank within the channel
// (tid = bank-in-channel + 1) plus tid 0 for channel-level events (request
// completions, refreshes, nacks). TWiCe prune passes additionally emit a
// per-bank "twice_occupancy" counter track — the Figure 5 trajectory,
// zoomable in ui.perfetto.dev.
package timeline

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// pidStride separates cells in pid space; channel counts are far below it.
const pidStride = 1000

// Cell is one run's timeline plus the labels its tracks display.
type Cell struct {
	Workload string
	Defense  string
	Rec      *Recorder
}

// Grid collects per-cell recorders from a grid run, mirroring
// probe.Collector: Start sizes it, each worker Records only its own index,
// and the export walks cells in index order — byte-identical at any
// parallelism.
type Grid struct {
	// Config seeds every per-cell Recorder the grid builds.
	Config Config

	cells []Cell
}

// Start (re)sizes the grid for n cells, dropping prior recordings.
func (g *Grid) Start(n int) { g.cells = make([]Cell, n) }

// NewRecorder builds one cell recorder from the grid's config.
func (g *Grid) NewRecorder() *Recorder { return NewRecorder(g.Config) }

// Record stores cell i's recorder. Distinct indexes may be recorded from
// distinct goroutines (each touches only its own slot).
func (g *Grid) Record(i int, workload, defense string, r *Recorder) {
	g.cells[i] = Cell{Workload: workload, Defense: defense, Rec: r}
}

// Cells returns how many cells have a recorder.
func (g *Grid) Cells() int {
	n := 0
	for i := range g.cells {
		if g.cells[i].Rec != nil {
			n++
		}
	}
	return n
}

// WriteTrace exports every recorded cell as one Chrome trace-event file.
func (g *Grid) WriteTrace(w io.Writer) error { return WriteTrace(w, g.cells) }

// jstr renders s as a JSON string literal (deterministic escaping).
func jstr(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// Marshalling a string cannot fail; keep the writer total anyway.
		return `"?"`
	}
	return string(b)
}

// traceWriter threads the comma/error state through the event stream.
type traceWriter struct {
	bw    *bufio.Writer
	first bool
	err   error
}

func (tw *traceWriter) emit(format string, args ...any) {
	if tw.err != nil {
		return
	}
	if tw.first {
		tw.first = false
	} else {
		if _, err := tw.bw.WriteString(",\n"); err != nil {
			tw.err = err
			return
		}
	}
	_, tw.err = fmt.Fprintf(tw.bw, format, args...)
}

// kindNames maps Kind to the displayed instant name, indexed by Kind.
var kindNames = [...]string{
	KindACT:       "ACT",
	KindARR:       "ARR",
	KindARRQueued: "ARR queued",
	KindNack:      "NACK",
	KindRequest:   "REQ",
	KindSpill:     "spill",
	KindPrune:     "prune",
	KindRefresh:   "REF",
	KindDetect:    "DETECT",
}

// WriteTrace writes the cells' retained events as one Chrome trace-event
// JSON document ({"traceEvents": [...]}, loadable by ui.perfetto.dev and
// chrome://tracing). Cells are walked in index order, windows in ascending
// simulated time, events in arrival order — the deterministic export order.
func WriteTrace(w io.Writer, cells []Cell) error {
	bw := bufio.NewWriter(w)

	var total, dropped, droppedWins int64
	for i := range cells {
		if r := cells[i].Rec; r != nil {
			total += r.Total()
			dropped += r.DroppedEvents()
			droppedWins += r.DroppedWindows()
		}
	}
	if _, err := fmt.Fprintf(bw,
		"{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"simulated (ps-exact)\",\"total_events\":\"%d\",\"dropped_events\":\"%d\",\"dropped_windows\":\"%d\"},\"traceEvents\":[\n",
		total, dropped, droppedWins); err != nil {
		return err
	}

	tw := &traceWriter{bw: bw, first: true}
	for ci := range cells {
		c := &cells[ci]
		if c.Rec == nil {
			continue
		}
		writeCell(tw, ci, c)
	}
	if tw.err != nil {
		return tw.err
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// writeCell emits one cell's track metadata followed by its events.
func writeCell(tw *traceWriter, ci int, c *Cell) {
	r := c.Rec
	channels, bpc := r.channels, r.banksPerChannel
	if channels < 1 {
		channels = 1
	}
	if bpc < 1 {
		bpc = 1
	}
	for ch := 0; ch < channels; ch++ {
		pid := ci*pidStride + ch
		name := jstr(fmt.Sprintf("cell%d %s/%s ch%d", ci, c.Workload, c.Defense, ch))
		tw.emit(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`, pid, name)
		tw.emit(`{"name":"process_sort_index","ph":"M","pid":%d,"tid":0,"args":{"sort_index":%d}}`, pid, pid)
		tw.emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":0,"args":{"name":"channel"}}`, pid)
		for b := 0; b < bpc; b++ {
			tw.emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"bank %d"}}`, pid, b+1, b)
		}
	}
	for wi := range r.wins {
		evs := r.wins[wi].events
		for ei := range evs {
			writeEvent(tw, ci, bpc, &evs[ei])
		}
	}
}

// writeEvent emits one event on its (pid, tid) track. ts is picoseconds
// rendered as microseconds with six fractional digits — pure integer math.
func writeEvent(tw *traceWriter, ci, bpc int, e *Event) {
	ch, tid := int(e.Chan), 0
	if e.Bank >= 0 {
		ch = int(e.Bank) / bpc
		tid = int(e.Bank)%bpc + 1
	}
	if ch < 0 {
		ch = 0
	}
	pid := ci*pidStride + ch
	us, frac := int64(e.T)/1_000_000, int64(e.T)%1_000_000

	if e.Kind == KindPrune {
		tw.emit(`{"name":"twice_occupancy b%d","ph":"C","ts":%d.%06d,"pid":%d,"tid":0,"args":{"entries":%d}}`,
			tid-1, us, frac, pid, e.A)
		if e.B == 0 {
			return
		}
		tw.emit(`{"name":"prune","ph":"i","ts":%d.%06d,"pid":%d,"tid":%d,"s":"t","args":{"pruned":%d}}`,
			us, frac, pid, tid, e.B)
		return
	}

	name := "event"
	if int(e.Kind) < len(kindNames) && kindNames[e.Kind] != "" {
		name = kindNames[e.Kind]
	}
	switch e.Kind {
	case KindARRQueued:
		tw.emit(`{"name":"ARR queued","ph":"i","ts":%d.%06d,"pid":%d,"tid":%d,"s":"t","args":{"pending":%d}}`,
			us, frac, pid, tid, e.A)
	case KindRequest:
		tw.emit(`{"name":"REQ","ph":"i","ts":%d.%06d,"pid":%d,"tid":%d,"s":"t","args":{"depth":%d,"latency_ps":%d}}`,
			us, frac, pid, tid, e.A, e.B)
	case KindDetect:
		tw.emit(`{"name":"DETECT","ph":"i","ts":%d.%06d,"pid":%d,"tid":%d,"s":"p","args":{"core":%d}}`,
			us, frac, pid, tid, e.A)
	default:
		tw.emit(`{"name":%s,"ph":"i","ts":%d.%06d,"pid":%d,"tid":%d,"s":"t"}`,
			jstr(name), us, frac, pid, tid)
	}
}
