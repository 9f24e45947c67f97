package mc

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/defense"
	"repro/internal/dram"
	"repro/internal/rcd"
	"repro/internal/stats"
)

func sysParams() dram.Params {
	p := dram.DDR4_2400()
	p.Channels = 1
	p.RanksPerChannel = 1
	p.BanksPerRank = 4
	p.RowsPerBank = 256
	p.ColumnsPerRow = 16
	p.SpareRowsPerBank = 8
	p.NTh = 140000
	return p
}

// rig bundles a controller with its accounting for tests.
type rig struct {
	sys *System
	cnt *stats.Counters
	dev *dram.Device
}

func newRig(t testing.TB, cfg Config, def defense.Defense) *rig {
	t.Helper()
	dev, err := dram.NewDevice(cfg.DRAM, nil)
	if err != nil {
		t.Fatal(err)
	}
	cnt := &stats.Counters{}
	sys, err := New(cfg, dev, rcd.New(cfg.DRAM, def), cnt)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{sys: sys, cnt: cnt, dev: dev}
}

// run pumps the controller until all given requests complete or the deadline
// passes, returning the number completed.
func (r *rig) run(t *testing.T, reqs []*Request, deadline clock.Time) int {
	t.Helper()
	done := 0
	for _, q := range reqs {
		prev := q.Done
		q.Done = func(c clock.Time) {
			done++
			if prev != nil {
				prev(c)
			}
		}
		if !r.sys.Enqueue(q, 0) {
			t.Fatal("queue full during test setup")
		}
	}
	now := clock.Time(0)
	for done < len(reqs) && now < deadline {
		now = r.sys.NextEvent()
		if now >= deadline {
			break
		}
		r.sys.Advance(now)
	}
	return done
}

// drain pumps the controller until no event remains at or before `until`,
// letting queued mitigation work (ARRs, victim refreshes) finish after the
// demand stream has completed.
func (r *rig) drain(until clock.Time) {
	for {
		now := r.sys.NextEvent()
		if now > until {
			return
		}
		r.sys.Advance(now)
	}
}

func req(r *rig, addr dram.Addr, write bool, core int) *Request {
	return &Request{ID: r.sys.NewID(), Addr: addr, Write: write, Core: core}
}

func TestConfigValidation(t *testing.T) {
	cfg := NewConfig(sysParams())
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.QueueDepth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero queue depth accepted")
	}
	bad = cfg
	bad.MaxRowHits = 0
	if err := bad.Validate(); err == nil {
		t.Error("minimalist-open with zero hits accepted")
	}
	bad = cfg
	bad.BatchCap = 0
	if err := bad.Validate(); err == nil {
		t.Error("PAR-BS with zero batch cap accepted")
	}
	// Settings the controller cannot run: the first three used to run
	// silently as another one (open page, no write buffer, or a rank whose
	// banks past 64 never schedule), and without a write buffer a write has
	// nowhere to wait.
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"unknown page policy", func(c *Config) { c.PagePolicy = PagePolicy(9) }},
		{"negative write queue depth", func(c *Config) { c.WriteQueueDepth = -1 }},
		{"65 banks per rank", func(c *Config) { c.DRAM.BanksPerRank, c.DRAM.BankGroups = 65, 1 }},
		{"write queue depth 0", func(c *Config) { c.WriteQueueDepth = 0 }},
	} {
		bad = cfg
		tc.edit(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	ok := cfg
	ok.DRAM.BanksPerRank = 64
	if err := ok.Validate(); err != nil {
		t.Errorf("64 banks per rank rejected: %v", err)
	}
}

func TestPolicyStrings(t *testing.T) {
	if OpenPage.String() != "open" || ClosedPage.String() != "closed" || MinimalistOpen.String() != "minimalist-open" {
		t.Error("page policy names wrong")
	}
	if PagePolicy(7).String() == "" {
		t.Error("unknown page policy name empty")
	}
}

func TestSingleReadCompletes(t *testing.T) {
	r := newRig(t, NewConfig(sysParams()), defense.Nop{})
	var completion clock.Time
	q := req(r, dram.Addr{Row: 5, Col: 3}, false, 0)
	q.Done = func(c clock.Time) { completion = c }
	if got := r.run(t, []*Request{q}, clock.Millisecond); got != 1 {
		t.Fatal("read did not complete")
	}
	p := sysParams()
	want := p.TRCD + p.TCL + p.TBL // ACT at 0, RD at tRCD, data at +tCL+tBL
	if completion != want {
		t.Errorf("completion = %v, want %v", completion, want)
	}
	if r.cnt.NormalACTs != 1 || r.cnt.Reads != 1 {
		t.Errorf("counters: %+v", r.cnt)
	}
	if r.cnt.RowMisses != 1 {
		t.Errorf("row misses = %d, want 1", r.cnt.RowMisses)
	}
}

func TestRowHitsUnderOpenPolicy(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.PagePolicy = OpenPage
	r := newRig(t, cfg, defense.Nop{})
	reqs := make([]*Request, 8)
	for i := range reqs {
		reqs[i] = req(r, dram.Addr{Row: 9, Col: i}, false, 0)
	}
	if got := r.run(t, reqs, clock.Millisecond); got != 8 {
		t.Fatalf("completed %d of 8", got)
	}
	if r.cnt.NormalACTs != 1 {
		t.Errorf("ACTs = %d, want 1 (all hits after the first)", r.cnt.NormalACTs)
	}
	if r.cnt.RowHits != 7 {
		t.Errorf("row hits = %d, want 7", r.cnt.RowHits)
	}
}

func TestMinimalistOpenClosesAfterBudget(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.PagePolicy = MinimalistOpen
	cfg.MaxRowHits = 4
	r := newRig(t, cfg, defense.Nop{})
	reqs := make([]*Request, 8)
	for i := range reqs {
		reqs[i] = req(r, dram.Addr{Row: 9, Col: i}, false, 0)
	}
	if got := r.run(t, reqs, clock.Millisecond); got != 8 {
		t.Fatalf("completed %d of 8", got)
	}
	// 8 accesses with a 4-hit budget = 2 activations.
	if r.cnt.NormalACTs != 2 {
		t.Errorf("ACTs = %d, want 2", r.cnt.NormalACTs)
	}
}

func TestClosedPagePrechargesEveryAccess(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.PagePolicy = ClosedPage
	r := newRig(t, cfg, defense.Nop{})
	reqs := make([]*Request, 4)
	for i := range reqs {
		reqs[i] = req(r, dram.Addr{Row: 9, Col: i}, false, 0)
	}
	if got := r.run(t, reqs, clock.Millisecond); got != 4 {
		t.Fatalf("completed %d of 4", got)
	}
	if r.cnt.NormalACTs != 4 {
		t.Errorf("ACTs = %d, want 4", r.cnt.NormalACTs)
	}
	if r.cnt.RowHits != 0 {
		t.Errorf("row hits = %d, want 0", r.cnt.RowHits)
	}
}

func TestConflictAccounting(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.PagePolicy = OpenPage
	r := newRig(t, cfg, defense.Nop{})
	a := req(r, dram.Addr{Row: 1, Col: 0}, false, 0)
	b := req(r, dram.Addr{Row: 2, Col: 0}, false, 0)
	if got := r.run(t, []*Request{a, b}, clock.Millisecond); got != 2 {
		t.Fatal("requests did not complete")
	}
	if r.cnt.RowConflicts != 1 {
		t.Errorf("conflicts = %d, want 1", r.cnt.RowConflicts)
	}
	if r.cnt.Precharges == 0 {
		t.Error("no precharges recorded for the conflict")
	}
}

func TestPARBSServesHitFirst(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.PagePolicy = OpenPage
	r := newRig(t, cfg, defense.Nop{})

	// Open row 1 first, then queue a conflicting (older) and a hitting
	// (younger) request: both join one batch, and within it the row hit
	// goes first.
	warm := req(r, dram.Addr{Row: 1, Col: 0}, false, 0)
	if got := r.run(t, []*Request{warm}, clock.Millisecond); got != 1 {
		t.Fatal("warm-up failed")
	}
	var order []int64
	conflict := req(r, dram.Addr{Row: 2, Col: 0}, false, 0)
	hit := req(r, dram.Addr{Row: 1, Col: 1}, false, 0)
	conflict.Done = func(clock.Time) { order = append(order, conflict.ID) }
	hit.Done = func(clock.Time) { order = append(order, hit.ID) }
	if !r.sys.Enqueue(conflict, clock.Microsecond) || !r.sys.Enqueue(hit, clock.Microsecond) {
		t.Fatal("enqueue failed")
	}
	now := clock.Microsecond
	for len(order) < 2 {
		now = r.sys.NextEvent()
		r.sys.Advance(now)
	}
	if order[0] != hit.ID {
		t.Errorf("completion order = %v, want row hit (%d) first", order, hit.ID)
	}
}

func TestRefreshHappensEveryTREFI(t *testing.T) {
	r := newRig(t, NewConfig(sysParams()), defense.Nop{})
	// Run idle for ~10 tREFI.
	horizon := 10 * sysParams().TREFI
	for {
		now := r.sys.NextEvent()
		if now > horizon {
			break
		}
		r.sys.Advance(now)
	}
	if r.cnt.Refreshes < 8 || r.cnt.Refreshes > 11 {
		t.Errorf("refreshes in 10·tREFI = %d, want ≈ 10", r.cnt.Refreshes)
	}
	st := r.dev.Bank(dram.BankID{}).Stats()
	if st.AutoRefreshes != r.cnt.Refreshes {
		t.Errorf("device refreshes %d != controller %d", st.AutoRefreshes, r.cnt.Refreshes)
	}
}

func TestRefreshDrainsOpenRows(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.PagePolicy = OpenPage
	r := newRig(t, cfg, defense.Nop{})
	warm := req(r, dram.Addr{Row: 3, Col: 0}, false, 0)
	if got := r.run(t, []*Request{warm}, clock.Millisecond); got != 1 {
		t.Fatal("warm-up failed")
	}
	// The row stays open (open policy); refresh must force it closed.
	horizon := 3 * sysParams().TREFI
	for {
		now := r.sys.NextEvent()
		if now > horizon {
			break
		}
		r.sys.Advance(now)
	}
	if r.cnt.Refreshes == 0 {
		t.Error("refresh starved by an open row")
	}
}

// twiceRig builds a rig with a low-threshold TWiCe for fast ARR tests.
func twiceRig(t *testing.T, thRH int) (*rig, *core.TWiCe) {
	t.Helper()
	p := sysParams()
	ccfg := core.NewConfig(p)
	ccfg.ThRH = thRH
	ccfg.Org = core.FA
	tw, err := core.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(p)
	cfg.PagePolicy = ClosedPage // every access is a fresh ACT
	return newRig(t, cfg, tw), tw
}

func TestARRIssuedAtThreshold(t *testing.T) {
	// thRH must be ≥ maxlife = tREFW/tREFI = 8192.
	r, tw := twiceRig(t, 8192)
	hammer := dram.Addr{Row: 50, Col: 0}
	issued, completed := 0, 0
	now := clock.Time(0)
	for completed < 8192 {
		if r.sys.HasSpace(0) && issued < 8192 {
			q := req(r, hammer, false, 0)
			q.Done = func(clock.Time) { completed++ }
			if r.sys.Enqueue(q, now) {
				issued++
			}
		}
		now = r.sys.NextEvent()
		r.sys.Advance(now)
	}
	r.drain(now + 10*clock.Microsecond)
	if got := tw.Detections(); got != 1 {
		t.Fatalf("TWiCe detections = %d, want 1", got)
	}
	if r.cnt.ARRs != 1 {
		t.Fatalf("ARRs issued = %d, want 1", r.cnt.ARRs)
	}
	if r.cnt.DefenseACTs != 2 {
		t.Errorf("defense ACTs = %d, want 2 (two ARR victims)", r.cnt.DefenseACTs)
	}
	if r.cnt.Detections != 1 {
		t.Errorf("controller detections = %d, want 1", r.cnt.Detections)
	}
	// The victims' disturbance was cleared by the ARR.
	bank := r.dev.Bank(dram.BankID{})
	if d := bank.Disturbance(49); d > 8192 {
		t.Errorf("victim disturbance = %d; ARR did not refresh", d)
	}
}

func TestDetectionAttribution(t *testing.T) {
	// Detections are attributed to the core whose ACT triggered them.
	r, _ := twiceRig(t, 8192)
	hammer := dram.Addr{Row: 50, Col: 0}
	benign := dram.Addr{Bank: 1, Row: 9, Col: 0}
	issued, completed := 0, 0
	now := clock.Time(0)
	for completed < 15000 {
		if r.sys.HasSpace(0) {
			addr, core := hammer, 3 // core 3 is the attacker
			if issued%4 == 0 {
				addr, core = benign, 0
			}
			q := req(r, addr, false, core)
			q.Done = func(clock.Time) { completed++ }
			if r.sys.Enqueue(q, now) {
				issued++
			}
		}
		now = r.sys.NextEvent()
		r.sys.Advance(now)
	}
	by := r.sys.DetectionsByCore()
	if by[3] == 0 {
		t.Fatalf("attacker core not attributed: %v", by)
	}
	if by[0] != 0 {
		t.Errorf("benign core attributed %d detections", by[0])
	}
}

func TestNacksCountedDuringARR(t *testing.T) {
	r, _ := twiceRig(t, 8192)
	hammer := dram.Addr{Row: 50, Col: 0}
	other := dram.Addr{Bank: 0, Row: 99, Col: 0} // same rank, hit by the block
	issued, completed := 0, 0
	now := clock.Time(0)
	for completed < 11000 {
		if r.sys.HasSpace(0) {
			addr := hammer
			if issued%8 == 7 {
				addr = other
			}
			q := req(r, addr, false, 0)
			q.Done = func(clock.Time) { completed++ }
			if r.sys.Enqueue(q, now) {
				issued++
			}
		}
		now = r.sys.NextEvent()
		r.sys.Advance(now)
	}
	if r.cnt.ARRs == 0 {
		t.Fatal("no ARRs issued")
	}
	if r.cnt.Nacks == 0 {
		t.Error("no nacks recorded despite ACTs during the ARR window")
	}
}

func TestMitigationVictimRefreshPath(t *testing.T) {
	// A defense returning LogicalVictims (PARA-style) causes one defense
	// ACT per victim and actually rejuvenates the row in the device.
	p := sysParams()
	def := &scriptedDefense{fireOn: 3, victims: []int{51}}
	cfg := NewConfig(p)
	cfg.PagePolicy = ClosedPage
	r := newRig(t, cfg, def)
	reqs := make([]*Request, 6)
	for i := range reqs {
		reqs[i] = req(r, dram.Addr{Row: 50, Col: 0}, false, 0)
	}
	if got := r.run(t, reqs, 10*clock.Millisecond); got != 6 {
		t.Fatalf("completed %d of 6", got)
	}
	if r.cnt.DefenseACTs != 1 {
		t.Errorf("defense ACTs = %d, want 1", r.cnt.DefenseACTs)
	}
	bank := r.dev.Bank(dram.BankID{})
	// Row 51's disturbance was reset by the victim refresh on the 3rd ACT,
	// then accumulated 3 more from ACTs 4-6.
	if d := bank.Disturbance(51); d != 3 {
		t.Errorf("victim disturbance = %d, want 3", d)
	}
}

func TestExtraAccessesOccupyBankAndCount(t *testing.T) {
	p := sysParams()
	def := &scriptedDefense{fireOn: 1, extra: 2, every: true}
	cfg := NewConfig(p)
	cfg.PagePolicy = ClosedPage
	r := newRig(t, cfg, def)
	reqs := make([]*Request, 4)
	for i := range reqs {
		reqs[i] = req(r, dram.Addr{Row: 10 + i, Col: 0}, false, 0)
	}
	if got := r.run(t, reqs, 10*clock.Millisecond); got != 4 {
		t.Fatalf("completed %d of 4", got)
	}
	r.drain(10 * clock.Millisecond)
	if r.cnt.DefenseACTs != 8 {
		t.Errorf("defense ACTs = %d, want 8 (2 per demand ACT)", r.cnt.DefenseACTs)
	}
}

func TestQueueBackpressure(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.QueueDepth = 2
	r := newRig(t, cfg, defense.Nop{})
	a := req(r, dram.Addr{Row: 1}, false, 0)
	b := req(r, dram.Addr{Row: 2}, false, 0)
	c := req(r, dram.Addr{Row: 3}, false, 0)
	if !r.sys.Enqueue(a, 0) || !r.sys.Enqueue(b, 0) {
		t.Fatal("first two enqueues failed")
	}
	if r.sys.Enqueue(c, 0) {
		t.Fatal("third enqueue accepted beyond queue depth")
	}
	if r.sys.HasSpace(0) {
		t.Error("HasSpace true on a full queue")
	}
}

func TestWritesArePosted(t *testing.T) {
	r := newRig(t, NewConfig(sysParams()), defense.Nop{})
	var completion clock.Time
	q := req(r, dram.Addr{Row: 5}, true, 0)
	q.Done = func(c clock.Time) { completion = c }
	if got := r.run(t, []*Request{q}, clock.Millisecond); got != 1 {
		t.Fatal("write did not complete")
	}
	p := sysParams()
	if completion != p.TRCD {
		t.Errorf("write completion = %v, want issue time %v (posted)", completion, p.TRCD)
	}
	if r.cnt.Writes != 1 {
		t.Errorf("writes = %d", r.cnt.Writes)
	}
}

// TestPARBSMarksBatches checks the PAR-BS batch cap. Core 0 queues six
// reads to one row of bank 0; once the first batch has formed, core 1 queues
// one read to another row of the same bank. With BatchCap 2 the first batch
// marks two of core 0's reads, so core 1's read is marked in the second batch
// and completes before core 0's last read. A batch that ignored the cap would
// mark all six of core 0's reads first and serve core 1 last.
func TestPARBSMarksBatches(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.BatchCap = 2
	r := newRig(t, cfg, defense.Nop{})
	var order []int // the core of each completed request, in completion order
	enqueue := func(q *Request, now clock.Time) {
		q.Done = func(clock.Time) { order = append(order, q.Core) }
		if !r.sys.Enqueue(q, now) {
			t.Fatal("queue full during test setup")
		}
	}
	for i := 0; i < 6; i++ {
		enqueue(req(r, dram.Addr{Row: 1, Col: i}, false, 0), 0)
	}
	now := r.sys.NextEvent()
	r.sys.Advance(now) // the first step forms the first batch
	enqueue(req(r, dram.Addr{Row: 7}, false, 1), now)
	for len(order) < 7 && now < 10*clock.Millisecond {
		now = r.sys.NextEvent()
		r.sys.Advance(now)
	}
	if len(order) != 7 {
		t.Fatalf("completed %d of 7", len(order))
	}
	if order[6] != 0 {
		t.Errorf("completion order by core %v: core 1's read finished last, after all of core 0's", order)
	}
}

// scriptedDefense fires a scripted action on the nth OnActivate call (or on
// every call with every=true).
type scriptedDefense struct {
	fireOn  int
	every   bool
	victims []int
	extra   int
	calls   int
}

func (s *scriptedDefense) Name() string { return "scripted" }

func (s *scriptedDefense) OnActivate(_ dram.BankID, _ int, _ clock.Time) defense.Action {
	s.calls++
	if s.every || s.calls == s.fireOn {
		return defense.Action{LogicalVictims: s.victims, ExtraAccesses: s.extra}
	}
	return defense.Action{}
}

func (s *scriptedDefense) OnRefreshTick(dram.BankID, clock.Time) {}
func (s *scriptedDefense) Reset()                                {}

func TestWriteBufferDrainsAtHighWatermark(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.WriteQueueDepth = 8
	cfg.WriteHigh = 6
	cfg.WriteLow = 2
	r := newRig(t, cfg, defense.Nop{})
	// Six writes and no reads: the buffer reaches the high watermark with
	// the read queue idle. Once the buffer is down to the low watermark the
	// burst turns off and on at alternate steps, and a write issues only if
	// its command is ready while the burst is on, so the last writes can
	// stay queued: hence 4 of 6, not 6 (the write-drain stall of ROADMAP
	// item 8).
	now := clock.Time(0)
	writesDone := 0
	for i := 0; i < 6; i++ {
		q := req(r, dram.Addr{Bank: i % 4, Row: 10 + i}, true, 0)
		q.Done = func(clock.Time) { writesDone++ }
		if !r.sys.Enqueue(q, now) {
			t.Fatalf("write %d rejected below queue depth", i)
		}
	}
	if got := r.sys.WriteQueueLen(0); got != 6 {
		t.Fatalf("write queue = %d, want 6", got)
	}
	r.drain(clock.Millisecond)
	if writesDone < 4 {
		t.Errorf("only %d writes drained after reaching the high watermark", writesDone)
	}
}

func TestWriteBufferBackpressure(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.WriteQueueDepth = 2
	cfg.WriteHigh = 2
	cfg.WriteLow = 0
	r := newRig(t, cfg, defense.Nop{})
	a := req(r, dram.Addr{Row: 1}, true, 0)
	b := req(r, dram.Addr{Row: 2}, true, 0)
	c := req(r, dram.Addr{Row: 3}, true, 0)
	if !r.sys.Enqueue(a, 0) || !r.sys.Enqueue(b, 0) {
		t.Fatal("writes rejected below depth")
	}
	if r.sys.Enqueue(c, 0) {
		t.Fatal("write accepted beyond write queue depth")
	}
	// Reads are unaffected by write backpressure.
	rd := req(r, dram.Addr{Row: 4}, false, 0)
	if !r.sys.Enqueue(rd, 0) {
		t.Fatal("read rejected while write buffer full")
	}
}

func TestWriteWatermarkValidation(t *testing.T) {
	cfg := NewConfig(sysParams())
	cfg.WriteQueueDepth = 8
	cfg.WriteHigh = 2
	cfg.WriteLow = 4 // low above high
	if err := cfg.Validate(); err == nil {
		t.Error("inverted watermarks accepted")
	}
	cfg.WriteHigh = 9 // above depth
	cfg.WriteLow = 1
	if err := cfg.Validate(); err == nil {
		t.Error("high watermark above depth accepted")
	}
}
