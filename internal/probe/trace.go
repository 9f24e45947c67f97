// Chrome trace-event / Perfetto JSON export of the simulated-time clock.
// The writer is hand-formatted — field order, separators, and timestamp
// rendering are all explicit — because the export is pinned byte-identical
// across serial and parallel grid runs and across commits: nothing here may
// depend on map iteration or floating-point formatting. Timestamps are
// microseconds (the trace-event unit) rendered by integer math as
// "<µs>.<6 digits>", which is exact picosecond precision straight from
// clock.Time.
//
// Track model: one trace-event process per (cell, channel) pair
// (pid = cell*pidStride + channel), one thread per bank within the channel
// (tid = bank-in-channel + 1) plus tid 0 for channel-level events (request
// completions, refreshes, nacks). TWiCe prune passes additionally emit a
// per-bank "twice_occupancy" counter track — the Figure 5 trajectory,
// zoomable in ui.perfetto.dev.
package probe

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// pidStride separates cells in pid space; channel counts are far below it.
const pidStride = 1000

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

// kindNames maps every Kind to its displayed instant name.
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

// WriteTrace writes every traced cell's retained events as one Chrome
// trace-event JSON document ({"traceEvents": [...]}, loadable by
// ui.perfetto.dev and chrome://tracing). Cells are walked in index order,
// windows in ascending simulated time, events in arrival order — the
// deterministic export order.
func (c *Collector) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)

	var total, dropped, droppedWins int64
	for i := range c.cells {
		if g := c.cells[i].trace; g != nil {
			total += g.total
			dropped += g.droppedEvents
			droppedWins += g.droppedWindows
		}
	}
	if _, err := fmt.Fprintf(bw,
		"{\"displayTimeUnit\":\"ns\",\"otherData\":{\"clock\":\"simulated (ps-exact)\",\"total_events\":\"%d\",\"dropped_events\":\"%d\",\"dropped_windows\":\"%d\"},\"traceEvents\":[\n",
		total, dropped, droppedWins); err != nil {
		return err
	}

	tw := &traceWriter{bw: bw, first: true}
	for ci := range c.cells {
		if c.cells[ci].trace != nil {
			writeCell(tw, ci, &c.cells[ci])
		}
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
func writeCell(tw *traceWriter, ci int, c *cell) {
	g := c.trace
	for ch := 0; ch < g.channels; ch++ {
		pid := ci*pidStride + ch
		name := jstr(fmt.Sprintf("cell%d %s/%s ch%d", ci, c.label.Workload, c.label.Defense, ch))
		tw.emit(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":%s}}`, pid, name)
		tw.emit(`{"name":"process_sort_index","ph":"M","pid":%d,"tid":0,"args":{"sort_index":%d}}`, pid, pid)
		tw.emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":0,"args":{"name":"channel"}}`, pid)
		for b := 0; b < g.banksPerChannel; b++ {
			tw.emit(`{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":"bank %d"}}`, pid, b+1, b)
		}
	}
	for wi := range g.wins {
		evs := g.wins[wi].events
		for ei := range evs {
			writeEvent(tw, ci, g.banksPerChannel, &evs[ei])
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

	switch e.Kind {
	case KindPrune:
		tw.emit(`{"name":"twice_occupancy b%d","ph":"C","ts":%d.%06d,"pid":%d,"tid":0,"args":{"entries":%d}}`,
			tid-1, us, frac, pid, e.A)
		if e.B != 0 {
			tw.emit(`{"name":"prune","ph":"i","ts":%d.%06d,"pid":%d,"tid":%d,"s":"t","args":{"pruned":%d}}`,
				us, frac, pid, tid, e.B)
		}
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
			jstr(kindNames[e.Kind]), us, frac, pid, tid)
	}
}
