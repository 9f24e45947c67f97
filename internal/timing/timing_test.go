package timing

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/dram"
)

func params() dram.Params {
	p := dram.DDR4_2400()
	p.Channels = 1
	p.RanksPerChannel = 1
	p.BanksPerRank = 4
	p.RowsPerBank = 1024
	p.SpareRowsPerBank = 8
	return p
}

func b(ch, rk, ba int) dram.BankID { return dram.BankID{Channel: ch, Rank: rk, Bank: ba} }

func TestCommandString(t *testing.T) {
	names := map[Command]string{ACT: "ACT", PRE: "PRE", RD: "RD", WR: "WR", REF: "REF", ARR: "ARR", Command(42): "Command(42)"}
	for c, want := range names {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
}

func TestTRCEnforced(t *testing.T) {
	p := params()
	c := NewChecker(p)
	id := b(0, 0, 0)
	if err := c.RecordACT(id, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RecordPRE(id, p.TRAS); err != nil {
		t.Fatal(err)
	}
	// Next ACT must wait until tRC even though tRP has passed earlier.
	if got := c.EarliestACT(id, 0); got != p.TRC {
		t.Errorf("earliest second ACT = %v, want tRC = %v", got, p.TRC)
	}
	if err := c.RecordACT(id, p.TRC-1); err == nil {
		t.Error("ACT before tRC accepted")
	}
	if err := c.RecordACT(id, p.TRC); err != nil {
		t.Errorf("ACT at exactly tRC rejected: %v", err)
	}
}

func TestTRASAndTRPEnforced(t *testing.T) {
	p := params()
	c := NewChecker(p)
	id := b(0, 0, 0)
	if err := c.RecordACT(id, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.EarliestPRE(id, 0); got != p.TRAS {
		t.Errorf("earliest PRE = %v, want tRAS = %v", got, p.TRAS)
	}
	if err := c.RecordPRE(id, p.TRAS-1); err == nil {
		t.Error("PRE before tRAS accepted")
	}
	if err := c.RecordPRE(id, p.TRAS); err != nil {
		t.Fatal(err)
	}
	if err := c.RecordPRE(id, p.TRAS+1); err == nil {
		t.Error("PRE with no open row accepted")
	}
}

func TestTRRDBetweenBanks(t *testing.T) {
	p := params()
	c := NewChecker(p)
	if err := c.RecordACT(b(0, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	if got := c.EarliestACT(b(0, 0, 1), 0); got != p.TRRD {
		t.Errorf("earliest ACT to sibling bank = %v, want tRRD = %v", got, p.TRRD)
	}
}

func TestTFAWLimitsBurstOfACTs(t *testing.T) {
	p := params()
	c := NewChecker(p)
	// Issue four ACTs as fast as tRRD allows, to four different banks.
	var t4 clock.Time
	for i := 0; i < 4; i++ {
		id := b(0, 0, i)
		at := c.EarliestACT(id, 0)
		if err := c.RecordACT(id, at); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			t4 = at
		}
	}
	// A fifth ACT must wait for the first + tFAW, not just tRRD.
	if err := c.RecordPRE(b(0, 0, 0), p.TRAS); err != nil {
		t.Fatal(err)
	}
	got := c.EarliestACT(b(0, 0, 0), 0)
	if want := t4 + p.TFAW; got < want {
		t.Errorf("5th ACT at %v, must be ≥ first ACT + tFAW = %v", got, want)
	}
}

func TestColumnTimingAndBus(t *testing.T) {
	p := params()
	c := NewChecker(p)
	id := b(0, 0, 0)
	if err := c.RecordACT(id, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.EarliestColumn(id, 0); got != p.TRCD {
		t.Errorf("earliest RD = %v, want tRCD = %v", got, p.TRCD)
	}
	done, err := c.RecordRead(id, p.TRCD)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.TRCD + p.TCL + p.TBL; done != want {
		t.Errorf("read completion = %v, want %v", done, want)
	}
	// Back-to-back reads in the same bank (same group) separated by tCCD_L.
	if got := c.EarliestColumn(id, 0); got != p.TRCD+p.CCDWithin() {
		t.Errorf("second RD earliest = %v, want %v", got, p.TRCD+p.CCDWithin())
	}
}

func TestBankGroupTimings(t *testing.T) {
	p := params() // 4 banks, 4 bank groups ⇒ 1 bank per group... use wider rank
	p.BanksPerRank = 8
	p.BankGroups = 4 // banks 0-1 group 0, 2-3 group 1, ...
	c := NewChecker(p)
	// ACT to bank 0, then: same-group bank 1 waits tRRD_L; cross-group bank
	// 2 waits only tRRD_S.
	if err := c.RecordACT(b(0, 0, 0), 0); err != nil {
		t.Fatal(err)
	}
	if got := c.EarliestACT(b(0, 0, 1), 0); got != p.RRDWithin() {
		t.Errorf("same-group ACT earliest = %v, want tRRD_L = %v", got, p.RRDWithin())
	}
	if got := c.EarliestACT(b(0, 0, 2), 0); got != p.TRRD {
		t.Errorf("cross-group ACT earliest = %v, want tRRD_S = %v", got, p.TRRD)
	}
}

func TestBankGroupColumnTimings(t *testing.T) {
	p := params()
	p.BanksPerRank = 8
	p.BankGroups = 4
	c := NewChecker(p)
	for _, ba := range []int{0, 1, 2} {
		if err := c.RecordACT(b(0, 0, ba), c.EarliestACT(b(0, 0, ba), 0)); err != nil {
			t.Fatal(err)
		}
	}
	// Let every bank clear its tRCD so only tCCD and the bus constrain the
	// comparison below.
	now := 30 * clock.Nanosecond
	rd0 := c.EarliestColumn(b(0, 0, 0), now)
	if _, err := c.RecordRead(b(0, 0, 0), rd0); err != nil {
		t.Fatal(err)
	}
	// Same group (bank 1) waits tCCD_L from the previous column command;
	// cross group (bank 2) only tCCD_S (both also limited by the data bus).
	sameG := c.EarliestColumn(b(0, 0, 1), now)
	crossG := c.EarliestColumn(b(0, 0, 2), now)
	if sameG < rd0+p.CCDWithin() {
		t.Errorf("same-group column at %v, want ≥ %v", sameG, rd0+p.CCDWithin())
	}
	if crossG >= sameG {
		t.Errorf("cross-group column (%v) not earlier than same-group (%v)", crossG, sameG)
	}
}

func TestBusContentionAcrossBanks(t *testing.T) {
	p := params()
	c := NewChecker(p)
	id0, id1 := b(0, 0, 0), b(0, 0, 1)
	if err := c.RecordACT(id0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RecordACT(id1, p.TRRD); err != nil {
		t.Fatal(err)
	}
	d0, err := c.RecordRead(id0, c.EarliestColumn(id0, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Bank 1's read must not overlap bank 0's data burst on the shared bus.
	at := c.EarliestColumn(id1, 0)
	if at+p.TCL < d0 {
		t.Errorf("second read burst would start at %v, before bus free at %v", at+p.TCL, d0)
	}
}

func TestWriteRecoveryDelaysPrecharge(t *testing.T) {
	p := params()
	c := NewChecker(p)
	id := b(0, 0, 0)
	if err := c.RecordACT(id, 0); err != nil {
		t.Fatal(err)
	}
	wrAt := c.EarliestColumn(id, 0)
	done, err := c.RecordWrite(id, wrAt)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.EarliestPRE(id, 0); got < done {
		t.Errorf("PRE allowed at %v, before write recovery completes at %v", got, done)
	}
}

func TestColumnCommandRequiresOpenRow(t *testing.T) {
	c := NewChecker(params())
	id := b(0, 0, 0)
	if _, err := c.RecordRead(id, 100); err == nil {
		t.Error("RD with closed row accepted")
	}
	if _, err := c.RecordWrite(id, 100); err == nil {
		t.Error("WR with closed row accepted")
	}
}

func TestRefreshOccupiesAllBanksOfRank(t *testing.T) {
	p := params()
	c := NewChecker(p)
	rk := dram.RankID{Channel: 0, Rank: 0}
	at := c.EarliestREF(rk, 0)
	if at != 0 {
		t.Fatalf("fresh rank refresh earliest = %v, want 0", at)
	}
	if err := c.RecordREF(rk, 0); err != nil {
		t.Fatal(err)
	}
	for ba := 0; ba < p.BanksPerRank; ba++ {
		if got := c.EarliestACT(b(0, 0, ba), 0); got != p.TRFC {
			t.Errorf("bank %d ACT after REF earliest = %v, want tRFC = %v", ba, got, p.TRFC)
		}
	}
}

func TestRefreshBlockedByOpenRow(t *testing.T) {
	c := NewChecker(params())
	if err := c.RecordACT(b(0, 0, 2), 0); err != nil {
		t.Fatal(err)
	}
	if got := c.EarliestREF(dram.RankID{Channel: 0, Rank: 0}, 0); got != clock.Never {
		t.Errorf("REF with open row earliest = %v, want Never", got)
	}
}

func TestARRBlocksRankACTs(t *testing.T) {
	p := params()
	c := NewChecker(p)
	id := b(0, 0, 0)
	if err := c.RecordARR(id, 1000); err != nil {
		t.Fatal(err)
	}
	end := clock.Time(1000) + c.ARRDuration()
	if got := c.EarliestACT(b(0, 0, 3), 1000); got != end {
		t.Errorf("ACT to sibling bank during ARR earliest = %v, want %v", got, end)
	}
	if got := c.RankBlockedUntil(dram.RankID{Channel: 0, Rank: 0}); got != end {
		t.Errorf("rank blocked until %v, want %v", got, end)
	}
	if got := c.BankBusyUntil(id); got != end {
		t.Errorf("bank busy until %v, want %v", got, end)
	}
}

func TestARRDurationFormula(t *testing.T) {
	p := params()
	c := NewChecker(p)
	if got, want := c.ARRDuration(), 2*p.TRC+p.TRP; got != want {
		t.Errorf("ARR duration = %v, want 2·tRC+tRP = %v", got, want)
	}
}

func TestARRRequiresPrechargedBank(t *testing.T) {
	c := NewChecker(params())
	id := b(0, 0, 0)
	if err := c.RecordACT(id, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RecordARR(id, 10); err == nil {
		t.Error("ARR with open row accepted")
	}
}

// TestACTSpacingProperty drives a random but legal command sequence and
// verifies the core protocol invariant the TWiCe table-size bound rests on:
// consecutive ACTs to one bank are never closer than tRC.
func TestACTSpacingProperty(t *testing.T) {
	p := params()
	f := func(seed int64) bool {
		c := NewChecker(p)
		id := b(0, 0, 0)
		var last clock.Time = -clock.Never
		now := clock.Time(0)
		r := seed
		for i := 0; i < 200; i++ {
			r = r*6364136223846793005 + 1442695040888963407
			jitter := clock.Time(uint64(r)%1000) * clock.Nanosecond
			at := c.EarliestACT(id, now+jitter)
			if err := c.RecordACT(id, at); err != nil {
				return false
			}
			if last != -clock.Never && at-last < p.TRC {
				return false
			}
			last = at
			pre := c.EarliestPRE(id, at)
			if err := c.RecordPRE(id, pre); err != nil {
				return false
			}
			now = pre
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestBatchedQueriesMatchPerBank drives random legal command sequences (ACT,
// PRE, RD, WR, REF, ARR) on two ranks of 16 banks and, after every command,
// asks EarliestACTs and EarliestColumns about random bank masks at random
// query times. Each answer must equal the per-bank EarliestACT and
// EarliestColumn answers: the minimum over the mask, and the mask of banks
// ready at the query time. The variants cover DDR4's four bank groups, no
// grouping, and unset long timings (tRRD_L = tCCD_L = 0); each must reach
// time 0's "no previous command" sentinels, a full tFAW window, an
// ARR-blocked rank and a refreshing rank. The gate early exits must run too:
// a bus-gated column set and an ACT set gated by tFAW or an ARR block whose
// first bank attains the gate, a gated set whose gate a later bank attains,
// and a gated set where no bank attains the gate.
func TestBatchedQueriesMatchPerBank(t *testing.T) {
	variants := []struct {
		name string
		edit func(*dram.Params)
	}{
		{"four-groups", func(*dram.Params) {}},
		{"no-groups", func(p *dram.Params) { p.BankGroups = 1 }},
		{"no-long-timings", func(p *dram.Params) { p.TRRDL, p.TCCDL = 0, 0 }},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			p := dram.DDR4_2400()
			p.Channels = 1
			p.RanksPerChannel = 2
			p.BanksPerRank = 16
			p.RowsPerBank = 1024
			p.SpareRowsPerBank = 8
			v.edit(&p)
			var cov batchCoverage
			for seed := int64(1); seed <= 20; seed++ {
				runBatchedProperty(t, p, seed, &cov)
				if t.Failed() {
					return
				}
			}
			if cov.atZero == 0 || cov.fawFull == 0 || cov.arrBlocked == 0 || cov.refreshing == 0 || cov.ready == 0 ||
				cov.busGateFirst == 0 || cov.rankGateFirst == 0 || cov.gateLater == 0 || cov.gateUnmet == 0 {
				t.Errorf("queries missed a case: %+v", cov)
			}
		})
	}
}

// batchCoverage counts the property's queries by the timing state they met.
type batchCoverage struct {
	atZero     int // before any command, at time 0
	fawFull    int // four ACTs within tFAW: the fifth must wait
	arrBlocked int // the rank inside an ARR block
	refreshing int // the rank inside tRFC
	ready      int // at least one bank of the mask ready
	// Gate early exits: the rank or bus gate lies past the query time.
	busGateFirst  int // column set, bus-gated, first bank of the mask attains the gate
	rankGateFirst int // ACT set, gated by tFAW or an ARR block, first bank attains the gate
	gateLater     int // gated set whose gate only a later bank attains
	gateUnmet     int // gated set where no bank attains the gate
}

// runBatchedProperty issues 300 random legal commands on a fresh checker,
// comparing batched and per-bank answers before the first and after each.
func runBatchedProperty(t *testing.T, p dram.Params, seed int64, cov *batchCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := NewChecker(p)
	full := uint64(1)<<p.BanksPerRank - 1
	now := clock.Time(0)
	compare := func() {
		for rk := 0; rk < p.RanksPerChannel; rk++ {
			for k := 0; k < 6; k++ {
				var mask uint64
				switch rng.Intn(5) {
				case 0:
					mask = full
				case 1:
					mask = 1 << rng.Intn(p.BanksPerRank)
				case 2:
					mask = 0
				default:
					mask = rng.Uint64() & full
				}
				at := now + clock.Time(rng.Int63n(int64(60*clock.Nanosecond))) - 10*clock.Nanosecond
				if at < 0 || now == 0 {
					at = 0
				}
				checkBatched(t, c, rk, mask, at, cov)
				// Also query at the ACT minimum, where at least one bank is
				// ready and the ready mask's equality edge is exercised.
				if m, _ := c.EarliestACTs(dram.RankID{Rank: rk}, mask, at); m != clock.Never {
					checkBatched(t, c, rk, mask, m, cov)
				}
				if now == 0 {
					cov.atZero++
				}
			}
		}
	}
	compare()
	for i := 0; i < 300 && !t.Failed(); i++ {
		// Mostly back-to-back commands, so tRRD, tFAW and tCCD bind.
		if rng.Intn(10) < 3 {
			now += clock.Time(rng.Int63n(int64(40 * clock.Nanosecond)))
		}
		rk, ba := rng.Intn(p.RanksPerChannel), rng.Intn(p.BanksPerRank)
		id := b(0, rk, ba)
		var err error
		switch k := rng.Intn(100); {
		case k < 2: // auto-refresh: precharge the rank, then REF
			for bb := 0; bb < p.BanksPerRank; bb++ {
				if o := b(0, rk, bb); c.bank(o).rowOpen {
					now = c.EarliestPRE(o, now)
					if err = c.RecordPRE(o, now); err != nil {
						break
					}
				}
			}
			if err == nil {
				rank := dram.RankID{Rank: rk}
				now = c.EarliestREF(rank, now)
				err = c.RecordREF(rank, now)
			}
		case !c.bank(id).rowOpen && k < 6:
			now = c.EarliestARR(id, now)
			err = c.RecordARR(id, now)
		case !c.bank(id).rowOpen:
			now = c.EarliestACT(id, now)
			err = c.RecordACT(id, now)
		case k < 25:
			now = c.EarliestPRE(id, now)
			err = c.RecordPRE(id, now)
		case k < 60:
			now = c.EarliestColumn(id, now)
			_, err = c.RecordWrite(id, now)
		default:
			now = c.EarliestColumn(id, now)
			_, err = c.RecordRead(id, now)
		}
		if err != nil {
			t.Fatalf("seed %d, command %d: %v", seed, i, err)
		}
		compare()
	}
}

// checkBatched compares one batched ACT and one batched column answer with
// the per-bank answers over the same mask at now.
func checkBatched(t *testing.T, c *Checker, rk int, mask uint64, now clock.Time, cov *batchCoverage) {
	t.Helper()
	rank := dram.RankID{Rank: rk}
	r := &c.ranks[rank.Flat(&c.p)]
	if oldest := r.faw[r.fawIdx]; oldest != -clock.Never && oldest+c.p.TFAW > now {
		cov.fawFull++
	}
	if r.blockedUntil > now {
		cov.arrBlocked++
	}
	if r.refReady > now {
		cov.refreshing++
	}
	actGate := clock.Max(now, r.blockedUntil)
	if oldest := r.faw[r.fawIdx]; oldest != -clock.Never {
		actGate = clock.Max(actGate, oldest+c.p.TFAW)
	}
	for _, q := range []struct {
		name    string
		batched func(dram.RankID, uint64, clock.Time) (clock.Time, uint64)
		single  func(dram.BankID, clock.Time) clock.Time
		gate    clock.Time // the rank or bus term every bank's time is at least
		first   *int       // coverage counter for a gate the first bank attains
	}{
		{"ACT", c.EarliestACTs, c.EarliestACT, actGate, &cov.rankGateFirst},
		{"column", c.EarliestColumns, c.EarliestColumn, clock.Max(now, c.busFree[0]-c.p.TCL), &cov.busGateFirst},
	} {
		want, wantReady := clock.Never, uint64(0)
		attained := -1 // position in the mask of the first bank at the gate
		for m, pos := mask, 0; m != 0; m, pos = m&(m-1), pos+1 {
			ba := bits.TrailingZeros64(m)
			e := q.single(b(0, rk, ba), now)
			want = clock.Min(want, e)
			if e <= now {
				wantReady |= 1 << ba
			}
			if e == q.gate && attained < 0 {
				attained = pos
			}
		}
		if q.gate > now && mask != 0 {
			switch attained {
			case -1:
				cov.gateUnmet++
			case 0:
				*q.first++
			default:
				cov.gateLater++
			}
		}
		got, gotReady := q.batched(rank, mask, now)
		if got != want || gotReady != wantReady {
			t.Fatalf("%s rank %d mask %#x at %v: batched (%v, %#x), per bank (%v, %#x)",
				q.name, rk, mask, now, got, gotReady, want, wantReady)
		}
		if wantReady != 0 {
			cov.ready++
		}
	}
}
