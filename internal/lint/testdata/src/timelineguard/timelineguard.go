// Package guardfix (timeline flavor) pins the probeguard rule onto the
// timeline recorder: the rule matches any type named Recorder in a package
// whose path contains "timeline", because the trace sink rides the same
// attachment contract as the probe recorder — hot paths forward behind one
// nil check and the methods assume a non-nil receiver. It also pins the
// hotpath contract for the forwarding shape internal/probe uses: a
// nil-guarded sink call must be allocation-free when the sink is detached.
package guardfix

// Recorder mimics the timeline recorder: hook methods assume a non-nil
// receiver and record into preallocated storage.
type Recorder struct {
	events []int64
	n      int
}

func (r *Recorder) ACT(bank int, t int64)    { r.slot() }
func (r *Recorder) Detect(bank int, t int64) { r.slot() }

func (r *Recorder) slot() {
	if r.n < len(r.events) {
		r.n++
	}
}

// NewRecorder constructs a necessarily non-nil recorder.
func NewRecorder(n int) *Recorder { return &Recorder{events: make([]int64, n)} }

// forwarder mimics the probe recorder holding an optional timeline sink.
type forwarder struct {
	sink *Recorder
}

func (f *forwarder) unguarded(bank int, t int64) {
	f.sink.ACT(bank, t) // want probeguard "not dominated by a nil guard"
}

func (f *forwarder) guarded(bank int, t int64) {
	if f.sink != nil {
		f.sink.ACT(bank, t)
	}
}

func (f *forwarder) earlyReturn(bank int, t int64) {
	if f.sink == nil {
		return
	}
	f.sink.Detect(bank, t)
}

// constructed sinks are non-nil without an explicit guard.
func constructed(bank int, t int64) int {
	tl := NewRecorder(8)
	tl.ACT(bank, t)
	return tl.n
}

// Apply mimics probe's hook-to-sink forwarding path — the hot forwarding shape
// the rule exists for: one branch pays the whole detached cost, and the
// guarded call allocates nothing (allocations inside the recorder would be
// hotpath findings through the call graph below).
//
//twicelint:hotpath fixture stand-in for the probe apply/forward kernel
func (f *forwarder) Apply(bank int, t int64) {
	if f.sink != nil {
		f.sink.ACT(bank, t)
	}
}

// badApply shows the two failure modes separately: an allocation on the hot
// forwarding path, then an unguarded sink call.
//
//twicelint:hotpath fixture stand-in for a broken forward kernel
func (f *forwarder) badApply(bank int, t int64) {
	if f.sink != nil {
		f.sink.events = append(f.sink.events, t) // want hotpath "append without capacity evidence"
	}
	f.sink.ACT(bank, t) // want probeguard "not dominated by a nil guard"
}
