// Package guardfix exercises the probeguard rule: the fixture declares its
// own Recorder (the rule matches any type named Recorder in a package whose
// path contains "probe") and covers the guard forms the domination walk
// understands — positive guards, early-exit guards, constructor tracking,
// receiver seeding — plus the unguarded shapes that must be findings.
package guardfix

// Recorder mimics the probe recorder: methods assume a non-nil receiver.
type Recorder struct{ events int }

func (r *Recorder) Event(n int) { r.events += n }
func (r *Recorder) Flush()      {}

// NewRecorder constructs a necessarily non-nil recorder.
func NewRecorder() *Recorder { return &Recorder{} }

type machine struct {
	probes  *Recorder
	enabled bool
}

func (m *machine) unguarded(n int) {
	m.probes.Event(n) // want probeguard "not dominated by a nil guard"
}

func (m *machine) guarded(n int) {
	if m.probes != nil {
		m.probes.Event(n)
	}
}

func (m *machine) earlyReturn(n int) {
	if m.probes == nil {
		return
	}
	m.probes.Event(n)
}

func (m *machine) conjunct(n int) {
	if m.enabled && m.probes != nil {
		m.probes.Event(n)
	}
}

// reassignment invalidates a guard: the second call runs after the field
// was set to nil inside the guarded region.
func (m *machine) reassigned(n int) {
	if m.probes != nil {
		m.probes.Event(n)
		m.probes = nil
		m.probes.Event(n) // want probeguard "not dominated by a nil guard"
	}
}

// constructed recorders are non-nil without an explicit guard; a merely
// declared one is not.
func constructed(n int) int {
	r := NewRecorder()
	r.Event(n)
	s := &Recorder{}
	s.Event(n)
	var t *Recorder
	t.Event(n) // want probeguard "not dominated by a nil guard"
	return r.events + s.events
}

// collector mimics probe.Collector, whose NewRecorder method returns nil
// for a nil collector: its result is not a constructed recorder.
type collector struct{}

func (c *collector) NewRecorder() *Recorder { return nil }

func fromCollector(c *collector, n int) {
	r := c.NewRecorder()
	r.Event(n) // want probeguard "not dominated by a nil guard"
}

// methodReceiver: inside a Recorder method the receiver is non-nil by the
// package contract, so delegated calls need no guard.
func (r *Recorder) EventTwice(n int) {
	r.Event(n)
	r.Event(n)
}

// closures are analyzed under the guard set at their creation point — the
// guard may not hold when the closure actually runs.
func escaping(m *machine, n int) func() {
	return func() {
		m.probes.Flush() // want probeguard "not dominated by a nil guard"
	}
}

// worker goroutines follow the same closure rule: a recorder call inside a
// spawned closure must be dominated by a nil guard, either inside the
// closure body or at the spawn site (guarding once before spawning is the
// cheap form).
func (m *machine) workerUnguarded(n int) {
	go func() {
		m.probes.Event(n) // want probeguard "not dominated by a nil guard"
	}()
}

func (m *machine) workerGuardedInside(n int) {
	go func() {
		if m.probes != nil {
			m.probes.Event(n)
		}
	}()
}

func (m *machine) workerGuardedAtSpawn(n int) {
	if m.probes == nil {
		return
	}
	go func() {
		m.probes.Event(n)
	}()
}

// pool mimics a persistent worker pool: Run invokes the job on parked
// goroutines, so a job closure follows the spawned-closure rule — the
// recorder call must be dominated by a nil guard inside the body or at the
// handoff site (a caller may guard once before it arms the pool, as in
// poolJobGuardedAtHandoff).
type pool struct{}

func (pool) Run(k int, job func(worker int)) { job(k - 1) }

func (m *machine) poolJobUnguarded(p pool, n int) {
	p.Run(2, func(int) {
		m.probes.Event(n) // want probeguard "not dominated by a nil guard"
	})
}

func (m *machine) poolJobGuardedInside(p pool, n int) {
	p.Run(2, func(int) {
		if m.probes != nil {
			m.probes.Event(n)
		}
	})
}

func (m *machine) poolJobGuardedAtHandoff(p pool, n int) {
	if m.probes == nil {
		return
	}
	p.Run(2, func(int) {
		m.probes.Event(n)
	})
}
