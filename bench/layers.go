package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/mc"
	"repro/internal/rcd"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/timing"
	"repro/internal/workload"
)

// The traced per-layer phase. A traced rep wraps the two interfaces sim
// calls through, workload.Generator and defense.Defense, timing every call
// and capturing what crossed them. Each remaining layer is then timed alone
// by replaying the captured streams through its public functions. All spans
// are recorded from this package; none come from inside the simulator.

// boundary names a timed layer boundary.
type boundary uint8

const (
	bRep           boundary = iota // one traced cell run, the parent of every other span
	bWorkload                      // Generator.Next, in the run
	bDefenseAct                    // Defense.OnActivate, in the run
	bDefenseTick                   // Defense.OnRefreshTick, in the run
	bCache                         // replay: Hierarchy.Access over the generator stream
	bMC                            // replay: the memory-request stream through mc.System
	bTiming                        // replay: the mc replay's commands through timing.Checker
	bDefenseReplay                 // replay: a fresh defense over the captured ACT/refresh stream
	bRCDReplay                     // replay: the same stream through rcd.RCD hosting a fresh defense
	bDRAMAct                       // replay: Bank.Activate + Precharge
	bDRAMRefresh                   // replay: AutoRefresh of every bank of a rank
	bDRAMARR                       // replay: Bank.AdjacentRowRefresh
	nBoundaries
)

var boundaryNames = [nBoundaries]string{
	"rep", "workload.Next", "defense.OnActivate", "defense.OnRefreshTick",
	"replay.cache", "replay.mc", "replay.timing", "replay.defense", "replay.rcd",
	"replay.dram.act", "replay.dram.refresh", "replay.dram.arr",
}

// perLayer are the metrics the traced phase reports for every workload. The
// cost of a call is measured on every workload, so no time reads 0; a layer
// the run does not use shows as 0 calls per request.
var perLayer = []metricDef{
	{"workload.ns_per_call", "ns"},
	{"workload.calls_per_req", "calls/req"},
	{"cache.ns_per_access", "ns"},
	{"cache.accesses_per_req", "accesses/req"},
	{"cache.hit_frac", "ratio"},
	{"cache.mem_per_access", "req/access"},
	{"mc.ns_per_req", "ns"},
	{"mc.ns_per_step", "ns"},
	{"mc.steps_per_req", "steps/req"},
	{"mc.reject_frac", "ratio"},
	{"mc.self_ns_per_req", "ns"},
	{"timing.ns_per_cmd", "ns"},
	{"timing.cmds_per_req", "cmds/req"},
	{"defense.ns_per_act", "ns"},
	{"defense.ns_per_tick", "ns"},
	{"defense.acts_per_req", "acts/req"},
	{"defense.ticks_per_req", "ticks/req"},
	{"defense.mitigations_per_act", "ops/act"},
	{"rcd.self_ns_per_act", "ns"},
	{"dram.ns_per_act", "ns"},
	{"dram.ns_per_refresh", "ns"},
	{"dram.ns_per_req", "ns"},
	{"experiments.cell_s_sum", "s"},
	{"parallel.efficiency", "ratio"},
	{"sim.glue_ns_per_req", "ns"},
	{"sim.alloc_bytes_per_req", "B/req"},
	{"trace.overhead_frac", "ratio"},
}

// span is one timed interval. parent indexes tracer.reps.
type span struct {
	b          boundary
	parent     int32
	start, end int64
}

// ringSize bounds the raw spans kept for the Chrome trace: the newest ones.
const ringSize = 1 << 15

// tracer aggregates spans per boundary and keeps a ring of raw ones.
type tracer struct {
	epoch time.Time
	// overhead is what an empty span measures: the clock's own cost, taken
	// out of every span's duration.
	overhead int64
	agg      [nBoundaries]struct{ spans, calls, ns int64 }
	ring     []span
	n        int
	reps     []span
	repNames []string
	cur      int32
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), ring: make([]span, ringSize), cur: -1}
	d := make([]int64, 1<<14)
	for i := range d {
		s := t.now()
		d[i] = t.now() - s
	}
	slices.Sort(d)
	t.overhead = d[len(d)/2]
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// end closes a span opened at start that covered calls calls into b.
func (t *tracer) end(b boundary, start int64, calls int) {
	e := t.now()
	a := &t.agg[b]
	a.spans++
	a.calls += int64(calls)
	a.ns += e - start
	t.ring[t.n%ringSize] = span{b: b, parent: t.cur, start: start, end: e}
	t.n++
}

// beginRep opens the span of one traced cell; later spans name it as their
// parent, replays included, until the next cell begins.
func (t *tracer) beginRep(name string) {
	t.cur = int32(len(t.reps))
	t.reps = append(t.reps, span{b: bRep, parent: -1, start: t.now()})
	t.repNames = append(t.repNames, name)
}

// endRep closes the open cell span and returns its duration in ns.
func (t *tracer) endRep() int64 {
	r := &t.reps[t.cur]
	r.end = t.now()
	t.agg[bRep].spans++
	t.agg[bRep].ns += r.end - r.start
	return r.end - r.start
}

// busyNS is a boundary's busy time less the clock cost of its spans.
func (t *tracer) busyNS(b boundary) float64 {
	a := t.agg[b]
	return max(0, float64(a.ns-a.spans*t.overhead))
}

func (t *tracer) calls(b boundary) float64 { return float64(t.agg[b].calls) }

// writeChrome writes the cell spans and the ring's raw spans as a Chrome
// trace (chrome://tracing, Perfetto), one thread per boundary.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	evs := make([]event, 0, len(t.reps)+min(t.n, ringSize))
	for i, r := range t.reps {
		evs = append(evs, event{Name: "rep " + t.repNames[i], Ph: "X", Ts: us(r.start), Dur: us(r.end - r.start), Pid: 1})
	}
	for i := max(0, t.n-ringSize); i < t.n; i++ {
		s := t.ring[i%ringSize]
		ev := event{Name: boundaryNames[s.b], Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: int(s.b)}
		if s.parent >= 0 {
			ev.Args = map[string]string{"parent": "rep " + t.repNames[s.parent]}
		}
		evs = append(evs, ev)
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return writeFile(path, b)
}

// Captured defense-boundary events.
const (
	evACT    uint8 = iota // an activation the defense observed
	evTick                // an auto-refresh of a whole rank (recorded at its bank 0)
	evARR                 // an aggressor the defense flagged for adjacent-row refresh
	evVictim              // a logical victim row the defense asked to be refreshed
)

type devEvent struct {
	t          clock.Time
	row        int32
	ch, rk, ba uint8
	kind       uint8
}

func (e devEvent) bank() dram.BankID {
	return dram.BankID{Channel: int(e.ch), Rank: int(e.rk), Bank: int(e.ba)}
}

// capture is what crossed the wrapped interfaces during one traced cell.
type capture struct {
	cores  int
	bypass bool
	// accesses is the generator stream in call order, each packed by pack.
	accesses []uint64
	events   []devEvent
	// Counts the in-run defense returned.
	detections, arrs, mitigations int64
}

func (c *capture) add(kind uint8, b dram.BankID, row int, t clock.Time) {
	c.events = append(c.events, devEvent{t: t, row: int32(row), ch: uint8(b.Channel), rk: uint8(b.Rank), ba: uint8(b.Bank), kind: kind})
}

// pack stores a line access in one word: the line address, the core in
// bits 1-5 (the panel runs at most 4 cores) and the write flag in bit 0.
func pack(addr uint64, core int, write bool) uint64 {
	v := addr&^63 | uint64(core)<<1
	if write {
		v |= 1
	}
	return v
}

func unpack(v uint64) (addr uint64, core int, write bool) {
	return v &^ 63, int(v >> 1 & 31), v&1 != 0
}

// tracedGen times Generator.Next and records each access.
type tracedGen struct {
	g    workload.Generator
	core int
	tr   *tracer
	c    *capture
}

func (g *tracedGen) Name() string { return g.g.Name() }

func (g *tracedGen) Next() workload.Access {
	start := g.tr.now()
	a := g.g.Next()
	g.tr.end(bWorkload, start, 1)
	g.c.accesses = append(g.c.accesses, pack(a.Addr, g.core, a.Write))
	return a
}

// tracedDefense times the defense's two observation calls and records what
// it saw and what it asked for.
type tracedDefense struct {
	d    defense.Defense
	rows int      //twicelint:keep geometry: the controller drops victim rows outside [0, rows)
	tr   *tracer  //twicelint:keep the traced phase owns the tracer across cells
	c    *capture //twicelint:keep the capture belongs to one cell; a reset run captures into it again
}

func (d *tracedDefense) Name() string { return d.d.Name() }

func (d *tracedDefense) Reset() { d.d.Reset() }

func (d *tracedDefense) OnActivate(bank dram.BankID, row int, now clock.Time) defense.Action {
	start := d.tr.now()
	a := d.d.OnActivate(bank, row, now)
	d.tr.end(bDefenseAct, start, 1)
	d.c.add(evACT, bank, row, now)
	for _, r := range a.ARRAggressors {
		d.c.add(evARR, bank, r, now)
	}
	for _, v := range a.LogicalVictims {
		if v >= 0 && v < d.rows {
			d.c.add(evVictim, bank, v, now)
		}
	}
	if a.Detected {
		d.c.detections++
	}
	d.c.arrs += int64(len(a.ARRAggressors))
	d.c.mitigations += int64(len(a.ARRAggressors) + len(a.LogicalVictims) + a.ExtraAccesses)
	return a
}

func (d *tracedDefense) OnRefreshTick(bank dram.BankID, now clock.Time) {
	start := d.tr.now()
	d.d.OnRefreshTick(bank, now)
	d.tr.end(bDefenseTick, start, 1)
	if bank.Bank == 0 {
		d.c.add(evTick, bank, 0, now)
	}
}

// wrap returns the runCell hook that installs the traced wrappers.
func (t *tracer) wrap(c *capture, rows int) func(defense.Defense, workload.Workload) (defense.Defense, workload.Workload) {
	return func(d defense.Defense, w workload.Workload) (defense.Defense, workload.Workload) {
		c.cores, c.bypass = w.Cores(), w.BypassCache
		gens := make([]workload.Generator, len(w.Gens))
		for i, g := range w.Gens {
			gens[i] = &tracedGen{g: g, core: i, tr: t, c: c}
		}
		w.Gens = gens
		return &tracedDefense{d: d, rows: rows, tr: t, c: c}, w
	}
}

// layerCounts accumulates, over a rep's cells, the counts spans do not hold.
type layerCounts struct {
	served        int64
	mitigations   int64
	cacheAccesses int64 // accesses the run sent through the hierarchy
	cacheHits     int64
	cacheMem      int64
	mc            mcStats
	tracedNS      int64
	rcdSelfNS     int64
}

// traceCell runs one cell traced, then replays its captured streams through
// each remaining layer.
func (p *panel) traceCell(r *sim.CellRunner, c cell, tr *tracer, lc *layerCounts) (*sim.Result, error) {
	var capt capture
	tr.beginRep(c.wname + "/" + c.dname)
	res, err := p.runCell(r, c, tr.wrap(&capt, p.cfg.DRAM.RowsPerBank))
	lc.tracedNS += tr.endRep()
	if err != nil {
		return nil, err
	}
	lc.served += res.Counters.RequestsServed
	lc.mitigations += capt.mitigations
	// The RCD's own cost is the difference of two near-equal replays, so
	// each runs replayRounds times, alternating, and the fastest of each
	// counts.
	defNS, rcdNS := int64(math.MaxInt64), int64(math.MaxInt64)
	for i := 0; i < replayRounds; i++ {
		d, err := p.replayDefense(c, &capt, res, tr)
		if err != nil {
			return nil, err
		}
		h, err := p.replayRCD(c, &capt, tr)
		if err != nil {
			return nil, err
		}
		defNS, rcdNS = min(defNS, d), min(rcdNS, h)
	}
	lc.rcdSelfNS += rcdNS - defNS
	if err := p.replayDRAM(&capt, tr); err != nil {
		return nil, err
	}
	// A bypassing workload's stream never enters the hierarchy in the run.
	// It is replayed all the same, so that the cache's cost per access is
	// measured on every workload; only the accesses the run made count
	// towards cache.accesses_per_req.
	cached, err := p.replayCache(&capt, tr, lc)
	if err != nil {
		return nil, err
	}
	stream := capt.accesses
	if !capt.bypass {
		stream = cached
		lc.cacheAccesses += int64(len(capt.accesses))
	}
	outstanding := capt.cores * p.cfg.CPU.MLP
	start := tr.now()
	st, err := p.runMC(stream, outstanding, nil)
	tr.end(bMC, start, len(stream))
	if err != nil {
		return nil, err
	}
	lc.mc.add(st)
	// A second, untimed pass hands the issued commands to the timing replay.
	tm := newTimingReplay(p.cfg, tr)
	st2, err := p.runMC(stream, outstanding, tm.add)
	if err != nil {
		return nil, err
	}
	if err := tm.flush(); err != nil {
		return nil, err
	}
	if st2 != st {
		return nil, fmt.Errorf("%s/%s: the mc replay is not repeatable: %+v then %+v", c.wname, c.dname, st, st2)
	}
	return res, nil
}

// replayRounds is how many times the defense and RCD replays run.
const replayRounds = 3

// replayDefense feeds the captured ACT/refresh stream to a fresh defense,
// checks that it reproduces the in-run detections and ARR requests, and
// returns how long the replay took in ns.
func (p *panel) replayDefense(c cell, capt *capture, res *sim.Result, tr *tracer) (int64, error) {
	d, err := p.scale.NewDefense(c.dname, p.cfg.DRAM)
	if err != nil {
		return 0, err
	}
	var acts, det, arrs int64
	banks := p.cfg.DRAM.BanksPerRank
	start := tr.now()
	for _, e := range capt.events {
		switch e.kind {
		case evACT:
			acts++
			a := d.OnActivate(e.bank(), int(e.row), e.t)
			if a.Detected {
				det++
			}
			arrs += int64(len(a.ARRAggressors))
		case evTick:
			for ba := 0; ba < banks; ba++ {
				d.OnRefreshTick(dram.BankID{Channel: int(e.ch), Rank: int(e.rk), Bank: ba}, e.t)
			}
		}
	}
	ns := tr.now() - start
	tr.end(bDefenseReplay, start, int(acts))
	if det != res.Counters.Detections || arrs != capt.arrs {
		return 0, fmt.Errorf("%s/%s: defense replay gave %d detections and %d ARRs, the run %d and %d",
			c.wname, c.dname, det, arrs, res.Counters.Detections, capt.arrs)
	}
	return ns, nil
}

// replayRCD feeds the same stream through an RCD hosting a fresh defense,
// taking each filed ARR as the controller would, and returns how long that
// took in ns.
func (p *panel) replayRCD(c cell, capt *capture, tr *tracer) (int64, error) {
	d, err := p.scale.NewDefense(c.dname, p.cfg.DRAM)
	if err != nil {
		return 0, err
	}
	h := rcd.New(p.cfg.DRAM, d)
	acts := 0
	start := tr.now()
	for _, e := range capt.events {
		switch e.kind {
		case evACT:
			acts++
			b := e.bank()
			h.ObserveACT(b, int(e.row), e.t)
			for h.HasPendingARR(b) {
				h.TakeARR(b)
			}
		case evTick:
			h.ObserveRefresh(dram.RankID{Channel: int(e.ch), Rank: int(e.rk)}, e.t)
		}
	}
	ns := tr.now() - start
	tr.end(bRCDReplay, start, acts)
	return ns, nil
}

// dramBoundary maps a captured event to the device operation it replays as.
func dramBoundary(kind uint8) boundary {
	switch kind {
	case evTick:
		return bDRAMRefresh
	case evARR:
		return bDRAMARR
	default:
		return bDRAMAct
	}
}

// replayDRAM applies the captured activations, refreshes and ARRs to a fresh
// device with the run's remap tables, one span per run of same-kind events.
func (p *panel) replayDRAM(capt *capture, tr *tracer) error {
	var rng *rand.Rand
	if p.cfg.Remap {
		rng = rand.New(rand.NewSource(p.cfg.Seed))
	}
	dev, err := dram.NewDevice(p.cfg.DRAM, rng)
	if err != nil {
		return err
	}
	banks := p.cfg.DRAM.BanksPerRank
	ev := capt.events
	for i := 0; i < len(ev); {
		b := dramBoundary(ev[i].kind)
		start := tr.now()
		j := i
		for ; j < len(ev) && dramBoundary(ev[j].kind) == b; j++ {
			e := ev[j]
			switch e.kind {
			case evACT, evVictim:
				bank := dev.Bank(e.bank())
				if err := bank.Activate(int(e.row), e.t); err != nil {
					return err
				}
				bank.Precharge()
			case evTick:
				for ba := 0; ba < banks; ba++ {
					if err := dev.Bank(dram.BankID{Channel: int(e.ch), Rank: int(e.rk), Bank: ba}).AutoRefresh(e.t); err != nil {
						return err
					}
				}
			case evARR:
				if _, err := dev.Bank(e.bank()).AdjacentRowRefresh(int(e.row), e.t); err != nil {
					return err
				}
			}
		}
		tr.end(b, start, j-i)
		i = j
	}
	return nil
}

// replayCache runs the captured generator stream through a fresh hierarchy
// and returns the memory-request stream it produced.
func (p *panel) replayCache(capt *capture, tr *tracer, lc *layerCounts) ([]uint64, error) {
	hcfg := p.cfg.Cache
	hcfg.Cores = capt.cores
	h, err := cache.NewHierarchy(hcfg)
	if err != nil {
		return nil, err
	}
	stream := make([]uint64, 0, len(capt.accesses)/4)
	var hits int64
	start := tr.now()
	for _, a := range capt.accesses {
		addr, core, write := unpack(a)
		res := h.Access(core, addr, write)
		if res.HitLevel > 0 {
			hits++
		}
		for _, m := range res.Mem {
			stream = append(stream, pack(m.Addr, core, m.Write))
		}
	}
	tr.end(bCache, start, len(capt.accesses))
	lc.cacheHits += hits
	lc.cacheMem += int64(len(stream))
	return stream, nil
}

// mcStats counts what one mc replay did.
type mcStats struct {
	reqs, steps, attempts, rejects, acts, refs int64
}

func (s *mcStats) add(o mcStats) {
	s.reqs += o.reqs
	s.steps += o.steps
	s.attempts += o.attempts
	s.rejects += o.rejects
	s.acts += o.acts
	s.refs += o.refs
}

// runMC feeds a memory-request stream into a standalone controller over a
// fresh device and an RCD hosting no defense. Reads run closed-loop, at most
// outstanding in flight as the cores' MLP windows allow; writes enter
// whenever their queue has room. The leg ends when the stream is in and every
// read is served: the controller drains buffered writes only at its high
// watermark or while its read queue is empty, and an idle tail below the low
// watermark never drains. trace, when non-nil, receives every command.
func (p *panel) runMC(stream []uint64, outstanding int, trace func(mc.TraceEvent)) (mcStats, error) {
	var st mcStats
	var rng *rand.Rand
	if p.cfg.Remap {
		rng = rand.New(rand.NewSource(p.cfg.Seed))
	}
	dev, err := dram.NewDevice(p.cfg.DRAM, rng)
	if err != nil {
		return st, err
	}
	cnt := &stats.Counters{}
	sys, err := mc.New(p.cfg.MC, dev, rcd.New(p.cfg.DRAM, defense.Nop{}), cnt)
	if err != nil {
		return st, err
	}
	amap, err := mc.NewAddrMap(p.cfg.DRAM)
	if err != nil {
		return st, err
	}
	sys.SetTrace(trace)
	var free []*mc.Request
	sys.SetRelease(func(q *mc.Request) { free = append(free, q) })
	reads := 0
	readDone := func(clock.Time) { reads--; st.reqs++ }
	writeDone := func(clock.Time) { st.reqs++ }
	now := clock.Time(0)
	next := 0
	for next < len(stream) || reads > 0 {
		for next < len(stream) {
			addr, core, write := unpack(stream[next])
			if !write && reads >= outstanding {
				break
			}
			var q *mc.Request
			if n := len(free); n > 0 {
				q = free[n-1]
				free = free[:n-1]
				*q = mc.Request{}
			} else {
				q = &mc.Request{}
			}
			q.ID = sys.NewID()
			q.Addr = amap.Decompose(addr)
			q.Write = write
			q.Core = core
			q.Done = readDone
			if write {
				q.Done = writeDone
			}
			st.attempts++
			if !sys.Enqueue(q, now) {
				st.rejects++
				free = append(free, q)
				break
			}
			next++
			if !write {
				reads++
			}
		}
		now = clock.Max(now, sys.NextEvent())
		sys.Advance(now)
	}
	st.steps = sys.Steps()
	st.acts = cnt.NormalACTs
	st.refs = cnt.Refreshes
	return st, nil
}

// Command ops as mc.TraceEvent numbers them.
const (
	opPRE    = 1
	opREF    = 2
	opACT    = 5
	opColumn = 6
)

// timingReplay re-issues an mc replay's command stream to a fresh timing
// checker: for each command one Earliest* query and one Record*, plus the
// precharge the minimalist-open policy issues after a row's last permitted
// column hit. The commands arrive from the trace hook and are replayed in
// batches, one span per batch.
type timingReplay struct {
	p    dram.Params
	mcfg mc.Config
	chk  *timing.Checker
	tr   *tracer
	hits []int // per flat bank: column accesses since the row opened
	buf  []mc.TraceEvent
	sink clock.Time
	err  error
}

func newTimingReplay(cfg sim.Config, tr *tracer) *timingReplay {
	return &timingReplay{
		p:    cfg.DRAM,
		mcfg: cfg.MC,
		chk:  timing.NewChecker(cfg.DRAM),
		tr:   tr,
		hits: make([]int, cfg.DRAM.TotalBanks()),
		buf:  make([]mc.TraceEvent, 0, 4096),
	}
}

func (r *timingReplay) add(ev mc.TraceEvent) {
	if r.err != nil {
		return
	}
	r.buf = append(r.buf, ev)
	if len(r.buf) == cap(r.buf) {
		r.err = r.flush()
	}
}

// flush replays the buffered commands; the first Record* error stops it.
func (r *timingReplay) flush() error {
	if r.err != nil {
		return r.err
	}
	start := r.tr.now()
	n, err := r.replay(r.buf)
	r.tr.end(bTiming, start, n)
	r.buf = r.buf[:0]
	return err
}

func (r *timingReplay) replay(evs []mc.TraceEvent) (int, error) {
	n := 0
	for _, ev := range evs {
		id := dram.BankID{Channel: ev.Channel, Rank: ev.Rank, Bank: ev.Bank}
		i := id.Flat(&r.p)
		var err error
		switch ev.Op {
		case opPRE:
			r.sink += r.chk.EarliestPRE(id, ev.T)
			err = r.chk.RecordPRE(id, ev.T)
			r.hits[i] = 0
		case opREF:
			r.sink += r.chk.EarliestREF(id.RankID(), ev.T)
			err = r.chk.RecordREF(id.RankID(), ev.T)
		case opACT:
			r.sink += r.chk.EarliestACT(id, ev.T)
			err = r.chk.RecordACT(id, ev.T)
			r.hits[i] = 0
		case opColumn:
			r.sink += r.chk.EarliestColumn(id, ev.T)
			if ev.Write {
				_, err = r.chk.RecordWrite(id, ev.T)
			} else {
				_, err = r.chk.RecordRead(id, ev.T)
			}
			r.hits[i]++
			if err == nil && (r.mcfg.PagePolicy == mc.ClosedPage ||
				(r.mcfg.PagePolicy == mc.MinimalistOpen && r.hits[i] >= r.mcfg.MaxRowHits)) {
				n++
				err = r.chk.RecordPRE(id, r.chk.EarliestPRE(id, ev.T))
				r.hits[i] = 0
			}
		default:
			err = fmt.Errorf("command op %d in a defense-free command stream", ev.Op)
		}
		if err != nil {
			return n, fmt.Errorf("timing replay: %w", err)
		}
		n++
	}
	return n, nil
}

// runLayers is the traced phase for one workload: a warm-up rep, p.reps
// untraced reps (the base the glue closes against), for fig7b-grid a serial
// Figure7b pass timed cell by cell, then one traced rep whose cells are
// replayed layer by layer.
func runLayers(name string, seed int64, frac float64, spansOut string) (*workloadResult, error) {
	p, err := newPanel(name, seed, frac)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Workload: name, Seed: seed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{Unit: m.unit}
	}
	fail := func(err error) {
		res.Failed++
		res.Errors = append(res.Errors, err.Error())
	}
	defer func() {
		res.FailFrac = float64(res.Failed) / float64(max(res.Attempted, 1))
		res.Correct = res.Failed == 0
	}()

	r := sim.NewCellRunner(p.cfg)
	res.Attempted++
	want, err := p.rep(r, nil)
	if err == nil {
		err = p.checkGolden(want)
	}
	if err != nil {
		fail(err)
		return res, nil
	}
	res.Digest = want

	var repS []float64
	var alloc uint64
	for i := 0; i < p.reps; i++ {
		res.Attempted++
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		d, err := p.rep(r, nil)
		secs := time.Since(start).Seconds()
		runtime.ReadMemStats(&after)
		if err == nil && d != want {
			err = fmt.Errorf("untraced rep digest %.12s differs from %.12s", d, want)
		}
		if err != nil {
			fail(err)
			continue
		}
		repS = append(repS, secs)
		alloc += after.TotalAlloc - before.TotalAlloc
	}
	_, baseS, _ := quartiles(repS)

	var cellS, serialS float64
	if p.grid {
		res.Attempted++
		s := p.scale
		s.Parallel = 1
		last := time.Now()
		s.Progress = func(int, int) {
			now := time.Now()
			cellS += now.Sub(last).Seconds()
			last = now
		}
		start := time.Now()
		cells, err := experiments.Figure7b(s)
		serialS = time.Since(start).Seconds()
		var d string
		if err == nil {
			d, err = digest(cells)
		}
		if err == nil && d != want {
			err = fmt.Errorf("serial grid digest %.12s differs from %.12s", d, want)
		}
		if err != nil {
			fail(err)
		}
		baseS = serialS
	}

	res.Attempted++
	tr := newTracer()
	var lc layerCounts
	results := make([]*sim.Result, 0, len(p.cells))
	for _, c := range p.cells {
		cr, err := p.traceCell(r, c, tr, &lc)
		if err != nil {
			fail(err)
			return res, nil
		}
		results = append(results, cr)
	}
	d, err := p.digest(results)
	if err == nil && d != want {
		err = fmt.Errorf("traced digest %.12s differs from untraced %.12s", d, want)
	}
	if err != nil {
		fail(err)
		return res, nil
	}
	if spansOut != "" {
		if err := tr.writeChrome(spansOut); err != nil {
			return nil, err
		}
	}

	served := float64(lc.served)
	set := func(name string, v float64) {
		m := res.Metrics[name]
		m.Value = v
		res.Metrics[name] = m
	}
	wNS := div(tr.busyNS(bWorkload), tr.calls(bWorkload))
	wPerReq := div(tr.calls(bWorkload), served)
	set("workload.ns_per_call", wNS)
	set("workload.calls_per_req", wPerReq)

	accesses := tr.calls(bCache)
	cNS := div(tr.busyNS(bCache), accesses)
	cPerReq := div(float64(lc.cacheAccesses), served)
	set("cache.ns_per_access", cNS)
	set("cache.accesses_per_req", cPerReq)
	set("cache.hit_frac", div(float64(lc.cacheHits), accesses))
	set("cache.mem_per_access", div(float64(lc.cacheMem), accesses))

	dramActNS := div(tr.busyNS(bDRAMAct), tr.calls(bDRAMAct))
	dramRefNS := div(tr.busyNS(bDRAMRefresh), tr.calls(bDRAMRefresh))
	dramNS := div(tr.busyNS(bDRAMAct)+tr.busyNS(bDRAMRefresh)+tr.busyNS(bDRAMARR), served)
	set("dram.ns_per_act", dramActNS)
	set("dram.ns_per_refresh", dramRefNS)
	set("dram.ns_per_req", dramNS)

	mcReqs := float64(lc.mc.reqs)
	mcNS := div(tr.busyNS(bMC), mcReqs)
	cmds := tr.calls(bTiming)
	tNS := div(tr.busyNS(bTiming), cmds)
	mcSelf := mcNS - tNS*div(cmds, mcReqs) - div(float64(lc.mc.acts)*dramActNS+float64(lc.mc.refs)*dramRefNS, mcReqs)
	set("mc.ns_per_req", mcNS)
	set("mc.ns_per_step", div(tr.busyNS(bMC), float64(lc.mc.steps)))
	set("mc.steps_per_req", div(float64(lc.mc.steps), mcReqs))
	set("mc.reject_frac", div(float64(lc.mc.rejects), float64(lc.mc.attempts)))
	set("mc.self_ns_per_req", mcSelf)
	set("timing.ns_per_cmd", tNS)
	set("timing.cmds_per_req", div(cmds, mcReqs))

	acts := tr.calls(bDefenseAct)
	actsPerReq := div(acts, served)
	defNS := div(tr.busyNS(bDefenseAct)+tr.busyNS(bDefenseTick), served)
	rcdSelf := div(float64(lc.rcdSelfNS), acts)
	set("defense.ns_per_act", div(tr.busyNS(bDefenseAct), acts))
	set("defense.ns_per_tick", div(tr.busyNS(bDefenseTick), tr.calls(bDefenseTick)))
	set("defense.acts_per_req", actsPerReq)
	set("defense.ticks_per_req", div(tr.calls(bDefenseTick), served))
	set("defense.mitigations_per_act", div(float64(lc.mitigations), acts))
	set("rcd.self_ns_per_act", rcdSelf)

	if p.grid {
		set("experiments.cell_s_sum", cellS)
		_, parS, _ := quartiles(repS)
		set("parallel.efficiency", div(cellS, gridWorkers*parS))
	} else {
		// A single run is one cell on one worker.
		set("experiments.cell_s_sum", baseS)
		set("parallel.efficiency", 1)
	}
	layerNS := wNS*wPerReq + cNS*cPerReq + mcSelf*div(mcReqs, served) + tNS*div(cmds, served) +
		defNS + rcdSelf*actsPerReq + dramNS
	set("sim.glue_ns_per_req", div(baseS*1e9, served)-layerNS)
	set("sim.alloc_bytes_per_req", div(float64(alloc), float64(len(repS))*served))
	set("trace.overhead_frac", div(float64(lc.tracedNS)/1e9, baseS)-1)
	return res, nil
}

// div is a/b, or 0 when b is 0 (a layer the workload does not run).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
