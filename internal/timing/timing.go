// Package timing enforces the DRAM command timing protocol: per-bank cycle
// constraints (tRC, tRAS, tRP, tRCD), per-rank activation throttles (tRRD,
// tFAW), column/data-bus occupancy, and the occupancy windows of refresh and
// adjacent-row-refresh commands. The memory controller consults a Checker to
// learn the earliest legal issue time for each command and records every
// command it issues.
package timing

import (
	"fmt"
	"math/bits"

	"repro/internal/clock"
	"repro/internal/dram"
)

// Command enumerates the DRAM commands whose timing the checker tracks.
type Command int

// DRAM commands.
const (
	ACT Command = iota // activate a row
	PRE                // precharge the open row
	RD                 // column read
	WR                 // column write
	REF                // per-rank auto-refresh
	ARR                // adjacent row refresh (issued by the RCD)
)

// String names the command as it would appear on a command trace.
func (c Command) String() string {
	switch c {
	case ACT:
		return "ACT"
	case PRE:
		return "PRE"
	case RD:
		return "RD"
	case WR:
		return "WR"
	case REF:
		return "REF"
	case ARR:
		return "ARR"
	default:
		return fmt.Sprintf("Command(%d)", int(c))
	}
}

type bankState struct {
	rowOpen   bool
	nextACT   clock.Time // earliest legal ACT (tRC / tRP / refresh occupancy)
	nextPRE   clock.Time // earliest legal PRE (tRAS / write recovery)
	nextCol   clock.Time // earliest legal RD/WR (tRCD)
	busyUntil clock.Time // REF or ARR occupancy
}

type rankState struct {
	lastACT      clock.Time    // issue time of the previous ACT (for tRRD)
	lastACTGroup int           // bank group of the previous ACT
	lastCol      clock.Time    // issue time of the previous column command
	lastColGroup int           // bank group of the previous column command
	faw          [4]clock.Time // issue times of the last four ACTs
	fawIdx       int
	blockedUntil clock.Time // ARR nack window: no ACT to the rank
	refReady     clock.Time // earliest next REF (tREFI pacing is the MC's job)
}

// Checker tracks protocol state for every bank and rank in the system.
type Checker struct {
	p       dram.Params //twicelint:keep timing parameters, fixed at construction
	banks   []bankState
	ranks   []rankState
	busFree []clock.Time // per-channel data bus availability
	// group is each bank's bank group, by bank index within its rank, so
	// no timing call divides to find it.
	//twicelint:keep derived from the parameters, fixed at construction
	group []int
}

// NewChecker builds a checker for the given configuration. All commands are
// legal at time zero.
func NewChecker(p dram.Params) *Checker {
	c := &Checker{
		p:       p,
		banks:   make([]bankState, p.TotalBanks()),
		ranks:   make([]rankState, p.Channels*p.RanksPerChannel),
		busFree: make([]clock.Time, p.Channels),
		group:   make([]int, p.BanksPerRank),
	}
	for ba := range c.group {
		c.group[ba] = c.p.BankGroup(ba)
	}
	c.Reset()
	return c
}

// Reset returns the checker to its just-constructed state (all commands
// legal at time zero), reusing the per-bank and per-rank state slices.
func (c *Checker) Reset() {
	for i := range c.banks {
		c.banks[i] = bankState{}
	}
	for i := range c.ranks {
		// -clock.Never is effectively -inf: no prior ACT or column command,
		// and an empty tFAW window.
		c.ranks[i] = rankState{lastACT: -clock.Never, lastCol: -clock.Never}
		for j := range c.ranks[i].faw {
			c.ranks[i].faw[j] = -clock.Never
		}
	}
	for i := range c.busFree {
		c.busFree[i] = 0
	}
}

func (c *Checker) bank(id dram.BankID) *bankState { return &c.banks[id.Flat(&c.p)] }
func (c *Checker) rank(id dram.BankID) *rankState { return &c.ranks[id.RankID().Flat(&c.p)] }

// EarliestACT returns the earliest time ≥ now at which an ACT may issue to
// the bank. It accounts for tRC/tRP, the rank's tRRD and tFAW windows, any
// REF/ARR occupancy, and ARR rank blocking.
func (c *Checker) EarliestACT(id dram.BankID, now clock.Time) clock.Time {
	b, r := c.bank(id), c.rank(id)
	t := clock.Max(now, b.nextACT)
	t = clock.Max(t, b.busyUntil)
	t = clock.Max(t, r.blockedUntil)
	// tRRD: the long value applies when the previous ACT hit the same bank
	// group (DDR4 bank-group timing).
	rrd := c.p.TRRD
	if c.group[id.Bank] == r.lastACTGroup {
		rrd = c.p.RRDWithin()
	}
	t = clock.Max(t, r.lastACT+rrd)
	// tFAW: the 4th-previous ACT must be at least tFAW in the past.
	oldest := r.faw[r.fawIdx]
	if oldest != -clock.Never {
		t = clock.Max(t, oldest+c.p.TFAW)
	}
	return t
}

// EarliestACTs answers EarliestACT for every bank of the rank whose bit is
// set in mask (bit i is bank i of the rank). It returns the minimum of those
// banks' earliest times and the mask of banks whose earliest time is now; an
// empty mask returns clock.Never and 0. The rank's ARR block and tFAW window
// are computed once, so each bank adds only its tRRD term (which depends on
// its bank group) and its own tRC/tRP and occupancy terms. Each bank's time
// equals EarliestACT's exactly: both take the maximum of the same terms.
//
// When that rank gate lies past now, no bank is ready and no bank's time is
// below the gate, so the first bank whose time equals the gate decides the
// answer: (gate, 0), without visiting the rest of the mask.
func (c *Checker) EarliestACTs(id dram.RankID, mask uint64, now clock.Time) (clock.Time, uint64) {
	rf := id.Flat(&c.p)
	r := &c.ranks[rf]
	base := clock.Max(now, r.blockedUntil)
	if oldest := r.faw[r.fawIdx]; oldest != -clock.Never {
		base = clock.Max(base, oldest+c.p.TFAW)
	}
	gated := base > now
	off := rf * c.p.BanksPerRank
	earliest, ready := clock.Never, uint64(0)
	for ; mask != 0; mask &= mask - 1 {
		ba := bits.TrailingZeros64(mask)
		b := &c.banks[off+ba]
		rrd := c.p.TRRD
		if c.group[ba] == r.lastACTGroup {
			rrd = c.p.RRDWithin()
		}
		t := clock.Max(clock.Max(clock.Max(base, r.lastACT+rrd), b.nextACT), b.busyUntil)
		if gated && t == base {
			return base, 0
		}
		if t == now {
			ready |= 1 << ba
		}
		earliest = clock.Min(earliest, t)
	}
	return earliest, ready
}

// RecordACT registers an ACT issued at time t to the bank. The caller must
// have honoured EarliestACT; violations return an error so simulator bugs
// surface immediately instead of silently producing impossible schedules.
func (c *Checker) RecordACT(id dram.BankID, t clock.Time) error {
	if e := c.EarliestACT(id, t); t < e {
		//twicelint:allocok cold error path: timing violation is a scheduler bug
		return fmt.Errorf("timing: ACT to %v at %v violates constraints (earliest %v)", id, t, e)
	}
	b, r := c.bank(id), c.rank(id)
	if b.rowOpen {
		//twicelint:allocok cold error path: timing violation is a scheduler bug
		return fmt.Errorf("timing: ACT to %v at %v with row already open", id, t)
	}
	b.rowOpen = true
	b.nextACT = t + c.p.TRC
	b.nextPRE = t + c.p.TRAS
	b.nextCol = t + c.p.TRCD
	r.lastACT = t
	r.lastACTGroup = c.group[id.Bank]
	r.faw[r.fawIdx] = t
	r.fawIdx = (r.fawIdx + 1) % len(r.faw)
	return nil
}

// EarliestPRE returns the earliest time ≥ now at which the open row may be
// precharged.
func (c *Checker) EarliestPRE(id dram.BankID, now clock.Time) clock.Time {
	b := c.bank(id)
	return clock.Max(clock.Max(now, b.nextPRE), b.busyUntil)
}

// RecordPRE registers a PRE issued at time t.
func (c *Checker) RecordPRE(id dram.BankID, t clock.Time) error {
	b := c.bank(id)
	if !b.rowOpen {
		//twicelint:allocok cold error path: timing violation is a scheduler bug
		return fmt.Errorf("timing: PRE to %v at %v with no open row", id, t)
	}
	if e := c.EarliestPRE(id, t); t < e {
		//twicelint:allocok cold error path: timing violation is a scheduler bug
		return fmt.Errorf("timing: PRE to %v at %v violates constraints (earliest %v)", id, t, e)
	}
	b.rowOpen = false
	b.nextACT = clock.Max(b.nextACT, t+c.p.TRP)
	return nil
}

// EarliestColumn returns the earliest time ≥ now at which a RD or WR may
// issue to the bank's open row, including channel data-bus availability.
func (c *Checker) EarliestColumn(id dram.BankID, now clock.Time) clock.Time {
	b, r := c.bank(id), c.rank(id)
	t := clock.Max(now, b.nextCol)
	t = clock.Max(t, b.busyUntil)
	// tCCD: the long value applies within one bank group.
	ccd := c.p.TCCD
	if c.group[id.Bank] == r.lastColGroup {
		ccd = c.p.CCDWithin()
	}
	t = clock.Max(t, r.lastCol+ccd)
	// The data burst must find the channel bus free. Bursts occupy the bus
	// tCL after the command; model bus contention at command granularity.
	if busAt := c.busFree[id.Channel] - c.p.TCL; t < busAt {
		t = busAt
	}
	return t
}

// EarliestColumns answers EarliestColumn for every bank of the rank whose
// bit is set in mask, the way EarliestACTs answers EarliestACT: it returns
// the minimum time and the mask of banks ready at now (clock.Never and 0 for
// an empty mask). The channel bus term is computed once per call; each bank
// adds its tCCD term and its own tRCD and occupancy terms. As in
// EarliestACTs, a bus gate past now answers (gate, 0) at the first bank
// whose time equals it.
func (c *Checker) EarliestColumns(id dram.RankID, mask uint64, now clock.Time) (clock.Time, uint64) {
	rf := id.Flat(&c.p)
	r := &c.ranks[rf]
	base := clock.Max(now, c.busFree[id.Channel]-c.p.TCL)
	gated := base > now
	off := rf * c.p.BanksPerRank
	earliest, ready := clock.Never, uint64(0)
	for ; mask != 0; mask &= mask - 1 {
		ba := bits.TrailingZeros64(mask)
		b := &c.banks[off+ba]
		ccd := c.p.TCCD
		if c.group[ba] == r.lastColGroup {
			ccd = c.p.CCDWithin()
		}
		t := clock.Max(clock.Max(clock.Max(base, r.lastCol+ccd), b.nextCol), b.busyUntil)
		if gated && t == base {
			return base, 0
		}
		if t == now {
			ready |= 1 << ba
		}
		earliest = clock.Min(earliest, t)
	}
	return earliest, ready
}

// RecordRead registers a RD at time t and returns the completion time at
// which data has fully returned to the controller.
func (c *Checker) RecordRead(id dram.BankID, t clock.Time) (clock.Time, error) {
	b := c.bank(id)
	if !b.rowOpen {
		//twicelint:allocok cold error path: timing violation is a scheduler bug
		return 0, fmt.Errorf("timing: RD to %v at %v with no open row", id, t)
	}
	if e := c.EarliestColumn(id, t); t < e {
		//twicelint:allocok cold error path: timing violation is a scheduler bug
		return 0, fmt.Errorf("timing: RD to %v at %v violates constraints (earliest %v)", id, t, e)
	}
	done := t + c.p.TCL + c.p.TBL
	c.busFree[id.Channel] = done
	c.recordCol(id, t)
	// Reads delay precharge by roughly the burst (tRTP folded into tCCD+tBL).
	b.nextPRE = clock.Max(b.nextPRE, t+c.p.CCDWithin()+c.p.TBL)
	return done, nil
}

// recordCol notes a column command for bank-group tCCD tracking.
func (c *Checker) recordCol(id dram.BankID, t clock.Time) {
	b, r := c.bank(id), c.rank(id)
	b.nextCol = t + c.p.CCDWithin()
	r.lastCol = t
	r.lastColGroup = c.group[id.Bank]
}

// RecordWrite registers a WR at time t and returns the time the write has
// been committed to the array (after write recovery).
func (c *Checker) RecordWrite(id dram.BankID, t clock.Time) (clock.Time, error) {
	b := c.bank(id)
	if !b.rowOpen {
		//twicelint:allocok cold error path: timing violation is a scheduler bug
		return 0, fmt.Errorf("timing: WR to %v at %v with no open row", id, t)
	}
	if e := c.EarliestColumn(id, t); t < e {
		//twicelint:allocok cold error path: timing violation is a scheduler bug
		return 0, fmt.Errorf("timing: WR to %v at %v violates constraints (earliest %v)", id, t, e)
	}
	burstEnd := t + c.p.TCL + c.p.TBL
	done := burstEnd + c.p.TWR
	c.busFree[id.Channel] = burstEnd
	c.recordCol(id, t)
	b.nextPRE = clock.Max(b.nextPRE, done)
	return done, nil
}

// EarliestREF returns the earliest time ≥ now a per-rank auto-refresh can
// issue: every bank in the rank precharged and past its tRP, and the rank
// not inside an ARR block.
func (c *Checker) EarliestREF(id dram.RankID, now clock.Time) clock.Time {
	t := now
	r := &c.ranks[id.Flat(&c.p)]
	t = clock.Max(t, r.blockedUntil)
	t = clock.Max(t, r.refReady)
	for ba := 0; ba < c.p.BanksPerRank; ba++ {
		b := c.bank(dram.BankID{Channel: id.Channel, Rank: id.Rank, Bank: ba})
		t = clock.Max(t, b.busyUntil)
		if b.rowOpen {
			return clock.Never // caller must precharge first
		}
		t = clock.Max(t, b.nextACT-c.p.TRC+c.p.TRP) // conservative: past tRP
	}
	return t
}

// RecordREF registers an auto-refresh on the rank at time t; all banks in
// the rank are busy until t+tRFC.
func (c *Checker) RecordREF(id dram.RankID, t clock.Time) error {
	if e := c.EarliestREF(id, t); t < e {
		//twicelint:allocok cold error path: timing violation is a scheduler bug
		return fmt.Errorf("timing: REF to %v at %v violates constraints (earliest %v)", id, t, e)
	}
	r := &c.ranks[id.Flat(&c.p)]
	r.refReady = t + c.p.TRFC
	for ba := 0; ba < c.p.BanksPerRank; ba++ {
		b := c.bank(dram.BankID{Channel: id.Channel, Rank: id.Rank, Bank: ba})
		b.busyUntil = t + c.p.TRFC
		b.nextACT = clock.Max(b.nextACT, t+c.p.TRFC)
	}
	return nil
}

// ARRDuration returns the bank occupancy of one adjacent-row-refresh: up to
// two internal ACT/PRE pairs plus the final precharge (2·tRC + tRP, §5.2).
func (c *Checker) ARRDuration() clock.Time {
	return 2*c.p.TRC + c.p.TRP
}

// EarliestARR returns the earliest time ≥ now an ARR may begin on the bank:
// the bank precharged, past any REF/ARR occupancy, and far enough from the
// previous ACT that the device-internal activations respect tRC.
func (c *Checker) EarliestARR(id dram.BankID, now clock.Time) clock.Time {
	b := c.bank(id)
	t := clock.Max(now, b.busyUntil)
	return clock.Max(t, b.nextACT)
}

// RecordARR registers an ARR beginning at time t on the bank: the bank is
// occupied for ARRDuration and — conservatively, to preserve tFAW under the
// device-internal activations — ACTs to the whole rank are blocked (nacked)
// for the same window.
func (c *Checker) RecordARR(id dram.BankID, t clock.Time) error {
	b, r := c.bank(id), c.rank(id)
	if b.rowOpen {
		//twicelint:allocok cold error path: timing violation is a scheduler bug
		return fmt.Errorf("timing: ARR to %v at %v with row open", id, t)
	}
	if e := c.EarliestARR(id, t); t < e {
		//twicelint:allocok cold error path: timing violation is a scheduler bug
		return fmt.Errorf("timing: ARR to %v at %v violates constraints (earliest %v)", id, t, e)
	}
	end := t + c.ARRDuration()
	b.busyUntil = clock.Max(b.busyUntil, end)
	b.nextACT = clock.Max(b.nextACT, end)
	r.blockedUntil = clock.Max(r.blockedUntil, end)
	return nil
}

// RankBlockedUntil reports the end of the rank's current ARR nack window
// (zero if none); the controller uses it to count nacked command attempts.
func (c *Checker) RankBlockedUntil(id dram.RankID) clock.Time {
	return c.ranks[id.Flat(&c.p)].blockedUntil
}
