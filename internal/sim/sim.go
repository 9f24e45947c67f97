// Package sim assembles the full simulated machine of Table 4 — workload
// generators driving application-level cores, the private/shared cache
// hierarchy, the memory controllers, the RCD-hosted row-hammer defense, and
// the DRAM device model — and runs it to completion under a request or time
// budget.
package sim

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/cpu"
	"repro/internal/defense"
	"repro/internal/dram"
	"repro/internal/mc"
	"repro/internal/probe"
	"repro/internal/rcd"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config describes the simulated machine.
type Config struct {
	DRAM  dram.Params
	MC    mc.Config
	Cache cache.HierarchyConfig
	CPU   cpu.Config
	// Seed drives every stochastic element (remap layout, retry jitter).
	Seed int64
	// Remap enables spare-row remapping sampled at DRAM.SCFRate.
	Remap bool
}

// DefaultConfig returns the paper's Table 4 machine for the given core
// count: DDR4-2400 with 2 channels × 2 ranks × 16 banks, PAR-BS scheduling,
// minimalist-open paging, the default cache hierarchy, and remapping on.
func DefaultConfig(cores int) Config {
	p := dram.DDR4_2400()
	return Config{
		DRAM:  p,
		MC:    mc.NewConfig(p),
		Cache: cache.DefaultHierarchy(cores),
		CPU:   cpu.DefaultConfig(),
		Seed:  1,
		Remap: true,
	}
}

// Validate reports whether the machine description is consistent.
func (c Config) Validate() error {
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	if err := c.MC.Validate(); err != nil {
		return err
	}
	// The device reads DRAM; the controller and its timing checker read
	// MC.DRAM. Both must describe one organization and timing. The
	// reliability fields and the spare rows are the device's alone.
	ctl := c.MC.DRAM
	ctl.NTh, ctl.BlastRadius, ctl.SCFRate, ctl.SpareRowsPerBank = c.DRAM.NTh, c.DRAM.BlastRadius, c.DRAM.SCFRate, c.DRAM.SpareRowsPerBank
	if ctl != c.DRAM {
		return errors.New("sim: MC.DRAM differs from DRAM in organization or timing; rebuild MC with mc.NewConfig(DRAM)")
	}
	// The address map takes only power-of-two geometries within 63 bits.
	if _, err := mc.NewAddrMap(c.DRAM); err != nil {
		return err
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	return c.CPU.Validate()
}

// Limits bounds a run: it stops when either limit is reached.
type Limits struct {
	// MaxRequests stops after this many memory requests complete. Demand
	// fills, prefetches, and writebacks all count: the bound is on memory
	// work performed, so streaming workloads whose reads are fully covered
	// by the prefetcher still make progress against it.
	MaxRequests int64
	// MaxTime stops at this simulated time.
	MaxTime clock.Time
}

// DefaultLimits bounds a run to the given number of memory requests with a
// generous one-second simulated-time ceiling.
func DefaultLimits(requests int64) Limits {
	return Limits{MaxRequests: requests, MaxTime: clock.Second}
}

// Result is the outcome of one run.
type Result struct {
	Workload string
	Defense  string
	Counters stats.Counters
	SimTime  clock.Time
	Flips    []dram.Flip
	RCD      rcd.Stats
	// DetectionsByCore attributes detections to the triggering core — the
	// "identify the attacker" capability of counter-based schemes.
	DetectionsByCore map[int]int64

	// Cache behaviour (zero when the workload bypassed the caches).
	L3 cache.Stats
}

// String summarises the result.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s: %s simTime=%v", r.Workload, r.Defense, r.Counters.String(), r.SimTime)
}

// Machine is an assembled system ready to run.
type Machine struct {
	cfg   Config
	w     workload.Workload
	def   defense.Defense
	dev   *dram.Device
	amap  *mc.AddrMap
	sys   *mc.System
	cores []*cpu.Core
	cnt   *stats.Counters

	// hier is the last-built cache hierarchy. It survives Reuse calls, so
	// a workload with the same core count gets it back Reset instead of
	// paying for a fresh ~16 MB L3 allocation; a cache-bypassing workload
	// leaves it untouched for the next user.
	hier *cache.Hierarchy

	// runStart is Counters.RequestsServed when the current Run started.
	runStart int64
	// free pools completed requests for reuse: the controller hands each
	// request back (mc.System.SetRelease) once its completion callback has
	// run, so steady state allocates no request objects at all. The pool
	// is bounded by the number of requests in flight.
	free []*mc.Request
	// demandDone holds the demand completion callbacks, one per core (each
	// credits its issuing core), built once per machine instead of once per
	// request. Best-effort requests carry none.
	demandDone []func(clock.Time)

	// rec is the attached telemetry recorder, nil when detached. The machine
	// fans the attachment out to the controller, the RCD, and the hosted
	// defense (when it implements probe.Instrumented); Reuse re-fans it to
	// each cell's fresh defense.
	rec *probe.Recorder
}

// NewMachine assembles a machine running the workload under the defense. It
// builds the parts every run shares (device, address map, controller) and
// arms them for the first run through Reuse.
func NewMachine(cfg Config, def defense.Defense, w workload.Workload) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var remapRng *rand.Rand
	if cfg.Remap {
		remapRng = rand.New(rand.NewSource(cfg.Seed))
	}
	dev, err := dram.NewDevice(cfg.DRAM, remapRng)
	if err != nil {
		return nil, err
	}
	amap, err := mc.NewAddrMap(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, dev: dev, amap: amap, cnt: &stats.Counters{}}
	if m.sys, err = mc.New(cfg.MC, dev, rcd.New(cfg.DRAM, nil), m.cnt); err != nil {
		return nil, err
	}
	m.sys.SetRelease(m.release)
	if err := m.Reuse(def, w); err != nil {
		return nil, err
	}
	return m, nil
}

// buildCores (re)creates the per-core CPUs and their completion callbacks
// for the machine's current workload.
func (m *Machine) buildCores() error {
	m.cores = make([]*cpu.Core, m.w.Cores())
	m.demandDone = make([]func(clock.Time), len(m.cores))
	for i := range m.cores {
		c, err := cpu.New(i, m.cfg.CPU, m.w.Gens[i])
		if err != nil {
			return err
		}
		m.cores[i] = c
		m.demandDone[i] = func(clock.Time) { c.OnComplete() }
	}
	return nil
}

// Reuse re-arms the machine for another run with a new defense and workload,
// resetting every stateful component in place: device disturbance counts,
// remap tables (fuse data — they survive untouched, which is why reuse is
// only valid within one Config, whose Seed generated them), the timing
// checker, controller queues and scratch and the RCD (all three through the
// controller's Reset), counters, and caches. The request pool keeps its
// requests, each cleared as it is reused. NewMachine arms a fresh machine
// through Reuse too, and the reuse equivalence test pins that a recycled
// machine behaves byte for byte like a fresh one.
func (m *Machine) Reuse(def defense.Defense, w workload.Workload) error {
	if err := w.Validate(); err != nil {
		return err
	}
	if def == nil {
		def = defense.Nop{}
	}
	m.w = w
	m.def = def
	m.dev.Reset()
	m.sys.Reset()
	m.sys.RCD().SetDefense(def)
	m.wireDefenseProbes()
	*m.cnt = stats.Counters{}
	if !w.BypassCache {
		if m.hier != nil && m.hier.Cores() == w.Cores() {
			m.hier.Reset()
		} else {
			hcfg := m.cfg.Cache
			hcfg.Cores = w.Cores()
			h, err := cache.NewHierarchy(hcfg)
			if err != nil {
				return err
			}
			m.hier = h
		}
	}
	return m.buildCores()
}

// release returns a completed request to the pool for reuse.
func (m *Machine) release(r *mc.Request) {
	r.Done = nil
	m.free = append(m.free, r)
}

// newRequest builds (or recycles) a request for the submit paths.
func (m *Machine) newRequest(addr uint64, write bool, core int, done func(clock.Time)) *mc.Request {
	var req *mc.Request
	if n := len(m.free); n > 0 {
		req = m.free[n-1]
		m.free = m.free[:n-1]
		*req = mc.Request{}
	} else {
		req = &mc.Request{}
	}
	req.ID = m.sys.NewID()
	req.Addr = m.amap.Decompose(addr)
	req.Write = write
	req.Core = core
	req.Done = done
	return req
}

// SetRecorder attaches a telemetry recorder to every instrumented component
// of the machine (controller, RCD, defense) and registers the machine-level
// gauges; nil detaches everywhere. The one Attach call hands the recorder
// the machine's topology and tREFI, which is both the gauge-sampling period
// and the trace's flight-recorder window. The caller gives every run a
// fresh recorder — the machine never clears recorded data.
func (m *Machine) SetRecorder(rec *probe.Recorder) {
	m.rec = rec
	m.sys.SetProbes(rec)
	m.sys.RCD().SetProbes(rec)
	m.wireDefenseProbes()
	if rec == nil {
		return
	}
	rec.Attach(m.cfg.DRAM.Channels, m.cfg.DRAM.TotalBanks(), m.cfg.DRAM.TREFI)
	rec.AddGauge("disturb_high_water", m.maxDisturbHighWater)
	rec.AddGauge("requests_served", m.served)
	rec.AddGauge("max_bank_queue_depth", m.sys.MaxBankQueueDepth)
}

// wireDefenseProbes points the hosted defense at the machine's recorder when
// the defense is instrumented; called on attachment and after every Reuse
// (each grid cell brings a fresh defense that needs re-wiring).
func (m *Machine) wireDefenseProbes() {
	if in, ok := m.def.(probe.Instrumented); ok {
		in.SetProbes(m.rec)
	}
}

// maxDisturbHighWater is the disturb_high_water gauge: the highest
// disturbance count any row of any bank has reached so far.
func (m *Machine) maxDisturbHighWater() int64 {
	var hw int64
	for _, b := range m.dev.Banks() {
		if v := int64(b.DisturbHighWater()); v > hw {
			hw = v
		}
	}
	return hw
}

// served counts the memory requests completed since Run started.
func (m *Machine) served() int64 { return m.cnt.RequestsServed - m.runStart }

// retryDelay spaces queue-full retries.
const retryDelay = 100 * clock.Nanosecond

// Run executes the machine until a limit is reached and returns the result.
func (m *Machine) Run(lim Limits) (*Result, error) {
	if lim.MaxRequests <= 0 && lim.MaxTime <= 0 {
		return nil, fmt.Errorf("sim: limits must bound the run: %+v", lim)
	}
	if lim.MaxTime <= 0 {
		lim.MaxTime = clock.Never
	}
	if lim.MaxRequests <= 0 {
		lim.MaxRequests = 1<<62 - 1
	}

	m.runStart = m.cnt.RequestsServed
	now := clock.Time(0)
	for m.served() < lim.MaxRequests && now < lim.MaxTime {
		next := m.sys.NextEvent()
		for _, c := range m.cores {
			next = clock.Min(next, c.NextEventTime())
		}
		if next == clock.Never {
			return nil, fmt.Errorf("sim: deadlock at %v (served %d)", now, m.served())
		}
		now = next
		if now >= lim.MaxTime {
			break
		}
		m.sys.Advance(now)
		for _, c := range m.cores {
			// Take pushes the core's next issue past now and a full queue
			// defers it past now, so each eligible core steps once.
			for c.NextEventTime() <= now {
				m.coreStep(c, now)
			}
		}
		if m.rec != nil {
			m.rec.MaybeSample(now)
		}
	}

	// Drain: let in-flight mitigation work (ARRs, victim refreshes) finish
	// so defense accounting is complete.
	drainUntil := now + 2*m.cfg.DRAM.TREFI
	for {
		t := m.sys.NextEvent()
		if t > drainUntil {
			break
		}
		m.sys.Advance(t)
		if m.rec != nil {
			m.rec.MaybeSample(t)
		}
	}

	for _, c := range m.cores {
		m.cnt.Instructions += c.Instructions()
	}
	res := &Result{
		Workload:         m.w.Name,
		Defense:          m.def.Name(),
		Counters:         *m.cnt,
		SimTime:          now,
		RCD:              rcd.Stats{ARRsIssued: m.cnt.ARRs, Nacks: m.cnt.Nacks, Detections: m.cnt.Detections},
		DetectionsByCore: m.sys.DetectionsByCore(),
	}
	for _, b := range m.dev.Banks() {
		res.Flips = append(res.Flips, b.Flips()...)
	}
	res.Counters.BitFlips = int64(len(res.Flips))
	if !m.w.BypassCache {
		res.L3 = m.hier.L3Stats()
	}
	return res, nil
}

// coreStep advances one core by one access at time now; the requests it
// produces arrive at the controller at now.
func (m *Machine) coreStep(c *cpu.Core, now clock.Time) {
	a := c.Take(now)
	addr := a.Addr &^ 63

	if m.w.BypassCache {
		m.submit(c, addr, a.Write, now)
		return
	}

	res := m.hier.Access(c.ID, addr, a.Write)
	if res.HitLevel > 0 {
		c.OnHit(res.Latency)
		m.cnt.CacheHits++
	} else {
		m.cnt.CacheMisses++
	}
	for _, ma := range res.Mem {
		if ma.Demand {
			m.submit(c, ma.Addr, false, now)
		} else { // writeback, prefetch or write-miss fill
			m.submitBestEffort(c.ID, ma.Addr, ma.Write, now)
		}
	}
}

// submit enqueues a demand access, deferring the core when the queue is full.
func (m *Machine) submit(c *cpu.Core, addr uint64, write bool, now clock.Time) {
	req := m.newRequest(addr, write, c.ID, m.demandDone[c.ID])
	if !m.sys.Enqueue(req, now) {
		m.release(req)
		c.Defer(workload.Access{Addr: addr, Write: write, Gap: 1}, now+retryDelay)
		return
	}
	c.OnMiss()
}

// submitBestEffort enqueues fire-and-forget traffic (writebacks,
// prefetches); when the queue is full the access is dropped, which is what
// real prefetchers do and is harmless for write data in a reliability model.
// Completions still count toward the run's request budget.
func (m *Machine) submitBestEffort(coreID int, addr uint64, write bool, now clock.Time) {
	req := m.newRequest(addr, write, coreID, nil)
	if !m.sys.Enqueue(req, now) {
		m.release(req)
	}
}

// Run is the package-level convenience: assemble and run in one call.
func Run(cfg Config, def defense.Defense, w workload.Workload, lim Limits) (*Result, error) {
	m, err := NewMachine(cfg, def, w)
	if err != nil {
		return nil, err
	}
	return m.Run(lim)
}

// CellRunner runs a sequence of (defense, workload) cells that share one
// machine Config, recycling a single Machine across them. The first Run
// builds the machine; later Runs reset it in place, which skips the
// construction (device bitmaps and remap tables, caches, tables) each cell
// would otherwise pay, and keeps the disturbance storage earlier cells
// stored: an S3 cell allocates ~5 MB on a fresh machine and ~0.75 MB on a
// recycled one (BenchmarkSimRunAllocs, BenchmarkSimRunReusedAllocs). One
// CellRunner serves one goroutine — typically one per parallel grid worker.
type CellRunner struct {
	cfg Config
	m   *Machine
	rec *probe.Recorder
}

// NewCellRunner prepares a runner for machines built from cfg.
func NewCellRunner(cfg Config) *CellRunner { return &CellRunner{cfg: cfg} }

// SetRecorder sets the telemetry recorder the next Run attaches (nil
// detaches). Grid workers install a fresh recorder before each cell, so a
// recycled machine can never leak one cell's telemetry into the next.
func (r *CellRunner) SetRecorder(rec *probe.Recorder) { r.rec = rec }

// Run executes one cell, reusing the worker's machine when it exists.
func (r *CellRunner) Run(def defense.Defense, w workload.Workload, lim Limits) (*Result, error) {
	if r.m == nil {
		m, err := NewMachine(r.cfg, def, w)
		if err != nil {
			return nil, err
		}
		r.m = m
	} else if err := r.m.Reuse(def, w); err != nil {
		return nil, err
	}
	r.m.SetRecorder(r.rec)
	return r.m.Run(lim)
}
