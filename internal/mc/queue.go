// Per-channel queue state and the incrementally maintained scheduler
// indexes (DESIGN.md §13). The channel's only demand queue is its per-bank
// FIFO buckets, with a count of queued reads and of buffered writes; beside
// them it keeps per-bank open-row hit counters and five bank-state words
// per rank (busy, open, hit, reads, attention; bit b is bank b of the
// rank). Every index is updated at the event that changes it (enqueue,
// completion, row open/close, command execution), so the scheduler derives
// each rank's candidate sets with a few mask operations and its per-step
// cost is O(ranks + attention banks + candidate banks) instead of O(banks ×
// queue). On top of the indexes the channel keeps the answers a step
// derives from them: each rank's demand-set times and each bank's demand
// pick, reused until an event changes their inputs (the dirtying rules
// below). The reference scheduler in reference_test.go keeps its own
// queues and re-derives everything by scanning; the differential test pins
// the two to the same issued-command trace.
package mc

import (
	"repro/internal/clock"
	"repro/internal/dram"
)

// mitOp is one unit of defense-mandated work on a bank: refreshing a victim
// row, or (for CRA) a timing-only access to the counter region.
type mitOp struct {
	row           int
	deviceRefresh bool
}

// bankCtl is the controller's view of one bank.
type bankCtl struct {
	open int // open logical row, -1 when precharged
	hits int // column accesses since the row opened
	mit  []mitOp
}

// bankq is one bank's share of the channel's demand queue: its queued reads
// and its buffered writes, each in admission (stamp) order, plus the count
// of queued requests hitting the bank's currently open row. A request joins
// its bucket in admit and leaves it in unindex.
type bankq struct {
	reads  []*Request // queued reads for this bank
	writes []*Request // buffered writes for this bank
	hits   int        // queued requests (either bucket) targeting the open row

	// The bank's demand pick (bestHit, the first conflicting request, or
	// bestMiss, by the bank's row state) and its key, valid while pickEpoch
	// equals the channel's epoch. A bucket or row change zeroes pickEpoch;
	// a key change (batch formation, drain toggle) bumps the epoch.
	pick      *Request
	pickKey   int64
	pickEpoch uint64
}

// Demand sets of a rank, indexing setMemo.t and its clean bits.
const (
	setColumn = iota // open banks with queued hits
	setPRE           // open banks whose queued requests all conflict
	setACT           // closed banks
)

// setMemo is one rank's demand-set memo: the earliest time the rank's last
// evaluation of each set found, and a clean bit per set that stays set until
// an input of that set changes. A clean time past now is exact: every bank
// of the set had a time past the evaluation instant, so each time is that
// bank's own timing term, which nothing has moved since.
type setMemo struct {
	t     [3]clock.Time
	clean uint8
}

// fresh reports whether set k's stored time is exact and lies past now, so
// the step can consider it instead of evaluating the set.
func (m *setMemo) fresh(k int, now clock.Time) bool {
	return m.clean&(1<<k) != 0 && m.t[k] > now
}

// store records set k's earliest time from a fresh evaluation.
func (m *setMemo) store(k int, t clock.Time) {
	m.t[k] = t
	m.clean |= 1 << k
}

// channel owns one memory channel's queue and banks.
type channel struct {
	sys        *System
	idx        int
	nreads     int          // queued reads, across the read buckets
	nwrites    int          // buffered writes awaiting drain, across the write buckets
	draining   bool         // write-drain burst in progress
	banks      []bankCtl    // rank-major: rank*BanksPerRank + bank
	refreshDue []clock.Time // per rank
	wake       clock.Time

	// Incremental scheduler indexes (DESIGN.md §13). Maintained on every
	// queue/row/command transition; consumed by scheduler.go. The bank-state
	// words are indexed by rank, with bit b for bank b of the rank.
	bankqs     []bankq  // per bank: FIFO buckets + open-row hit count
	busy       []uint64 // some bucket holds a queued request
	open       []uint64 // a row is open
	hit        []uint64 // bankq.hits > 0: a queued request targets the open row
	reads      []uint64 // the read bucket is non-empty
	attn       []uint64 // pending ARR or mitigation debt
	markedLeft int      // marked PAR-BS requests still in the read queue
	admits     int64    // admission stamp counter (Request.stamp source)

	// Reused answers (DESIGN.md §13): per rank, the demand-set memo; the
	// epoch that keeps the banks' cached picks valid; and settled, true
	// while the channel's last step issued nothing.
	memo    []setMemo
	epoch   uint64
	settled bool

	// PAR-BS batch state, dense by core id: admit grows each slice the
	// first time a core id appears, and a core without marked requests
	// ranks 0.
	coreRank   []int // per core: thread rank in the current batch
	batchSlot  []int // per core*banks + bank: marked requests (the cap count)
	batchLoad  []int // per core: marked requests in the current batch
	batchCores []int // cores with marked requests, sorted by load
}

func (ch *channel) bankID(rank, bank int) dram.BankID {
	return dram.BankID{Channel: ch.idx, Rank: rank, Bank: bank}
}

func (ch *channel) bank(rank, bank int) *bankCtl {
	return &ch.banks[rank*ch.sys.cfg.DRAM.BanksPerRank+bank]
}

// flat returns the channel-local dense bank index.
func (ch *channel) flat(rank, bank int) int {
	return rank*ch.sys.cfg.DRAM.BanksPerRank + bank
}

// ---- index maintenance ----
//
// Each function below runs at exactly the transition that changes the
// indexed quantity, which is what keeps every scheduler read O(1). All are
// reachable from the Enqueue/Advance hot paths.

// admit queues a freshly accepted request: stamps it, appends it to its
// bank's read or write bucket, counts it, marks the bank busy, and updates
// the open-row hit counter. It reports whether the admission dirtied a
// demand set: it flipped the bank's busy, reads or hit bit (all three sets
// of the rank), or it queued behind a closed bank of a rank inside an ARR
// block (the ACT set, whose evaluation counts the new request's nack).
func (ch *channel) admit(q *Request, now clock.Time) bool {
	q.stamp = ch.admits
	ch.admits++
	if q.Core >= len(ch.coreRank) {
		ch.growCores(q.Core + 1)
	}
	rk, bit := q.Addr.Rank, uint64(1)<<q.Addr.Bank
	i := ch.flat(rk, q.Addr.Bank)
	bq := &ch.bankqs[i]
	bq.pickEpoch = 0
	flipped := ch.busy[rk]&bit == 0
	if q.Write {
		//twicelint:allocok amortized growth of the reused per-bank write bucket
		bq.writes = append(bq.writes, q)
		ch.nwrites++
	} else {
		//twicelint:allocok amortized growth of the reused per-bank read bucket
		bq.reads = append(bq.reads, q)
		ch.nreads++
		flipped = flipped || ch.reads[rk]&bit == 0
		ch.reads[rk] |= bit
	}
	ch.busy[rk] |= bit
	if ch.banks[i].open == q.Addr.Row {
		bq.hits++
		flipped = flipped || ch.hit[rk]&bit == 0
		ch.hit[rk] |= bit
	}
	if q.marked && !q.Write {
		// Defensive: a recycled request arriving pre-marked still counts
		// toward the batch-drain check, exactly as the reference's queue
		// scan would see it.
		ch.markedLeft++
	}
	switch {
	case flipped:
		ch.dirty(rk)
	case ch.banks[i].open < 0 && ch.sys.chk.RankBlockedUntil(dram.RankID{Channel: ch.idx, Rank: rk}) > now:
		ch.memo[rk].clean &^= 1 << setACT
	default:
		return false
	}
	return true
}

// unindex removes a completed request from its bank bucket and counts.
// It must run while the bank's row state still matches the request's last
// access (doColumn calls it before any page-policy precharge). A removal
// that clears the bank's busy, reads or hit bit dirties the rank's sets.
func (ch *channel) unindex(q *Request) {
	rk, bit := q.Addr.Rank, uint64(1)<<q.Addr.Bank
	i := ch.flat(rk, q.Addr.Bank)
	bq := &ch.bankqs[i]
	bq.pickEpoch = 0
	fifo := bq.reads
	if q.Write {
		fifo = bq.writes
	}
	for j, r := range fifo {
		if r == q {
			fifo = append(fifo[:j], fifo[j+1:]...)
			break
		}
	}
	flipped := false
	if q.Write {
		bq.writes = fifo
		ch.nwrites--
	} else {
		bq.reads = fifo
		ch.nreads--
		if len(fifo) == 0 {
			ch.reads[rk] &^= bit
			flipped = true
		}
	}
	if len(bq.reads) == 0 && len(bq.writes) == 0 {
		ch.busy[rk] &^= bit
		flipped = true
	}
	if ch.banks[i].open == q.Addr.Row {
		bq.hits--
		if bq.hits == 0 {
			ch.hit[rk] &^= bit
			flipped = true
		}
	}
	if flipped {
		ch.dirty(rk)
	}
	if q.marked && !q.Write {
		ch.markedLeft--
	}
}

// growCores extends the dense PAR-BS batch state to n core ids. It runs
// once per new core id, so a run's first requests pay for it.
func (ch *channel) growCores(n int) {
	nb := len(ch.banks)
	//twicelint:allocok grows once per new core id, bounded by the core count
	ch.coreRank = append(ch.coreRank, make([]int, n-len(ch.coreRank))...)
	//twicelint:allocok grows once per new core id, bounded by the core count
	ch.batchLoad = append(ch.batchLoad, make([]int, n-len(ch.batchLoad))...)
	//twicelint:allocok grows once per new core id, bounded by cores × banks
	ch.batchSlot = append(ch.batchSlot, make([]int, n*nb-len(ch.batchSlot))...)
}

// onRowOpen opens row on the bank after an ACT: it records the row, sets
// the bank's open bit, recounts its open-row hit counter, and dirties the
// rank's sets (the ACT moved its timing and the bank's set membership). The scan is
// bounded by the bank's own bucket occupancy and runs once per row
// activation, not per scheduler step.
func (ch *channel) onRowOpen(rk, ba, row int) {
	i := ch.flat(rk, ba)
	ch.banks[i].open = row
	ch.banks[i].hits = 0
	bq := &ch.bankqs[i]
	bq.pickEpoch = 0
	ch.dirty(rk)
	n := 0
	for _, q := range bq.reads {
		if q.Addr.Row == row {
			n++
		}
	}
	for _, q := range bq.writes {
		if q.Addr.Row == row {
			n++
		}
	}
	bq.hits = n
	bit := uint64(1) << ba
	ch.open[rk] |= bit
	if n > 0 {
		ch.hit[rk] |= bit
	} else {
		ch.hit[rk] &^= bit
	}
}

// onRowClose records a precharge: the bank has no open row, so no queued
// request hits it.
func (ch *channel) onRowClose(rk, ba int) {
	i := ch.flat(rk, ba)
	ch.banks[i].open = -1
	ch.banks[i].hits = 0
	ch.bankqs[i].hits = 0
	ch.bankqs[i].pickEpoch = 0
	ch.dirty(rk)
	ch.open[rk] &^= 1 << ba
	ch.hit[rk] &^= 1 << ba
}

// updateAttn re-derives the bank's attention bit: it owes an adjacent-row
// refresh or carries mitigation debt. Called after every event that can
// file or consume such work (ACT observation, ARR take, mit pop). A flip
// changes the rank's PRE and ACT masks, yet it dirties nothing here: every
// call follows a command that dirties the rank (the ACT opens a row, the
// ARR and the mitigation dirty it). (doARR's call when TakeARR finds
// nothing cannot flip the bit: the step considers an ARR only for a bank
// the RCD reports pending.)
func (ch *channel) updateAttn(id dram.BankID) {
	if ch.sys.rcd.HasPendingARR(id) || len(ch.bank(id.Rank, id.Bank).mit) > 0 {
		ch.attn[id.Rank] |= 1 << id.Bank
	} else {
		ch.attn[id.Rank] &^= 1 << id.Bank
	}
}

// dirty marks every demand set of rank rk for re-evaluation: a row opened or
// closed, or a REF, ARR, mitigation or queue change moved the rank's
// timing terms or masks.
func (ch *channel) dirty(rk int) { ch.memo[rk].clean = 0 }

// dirtyColumns marks every rank's column set for re-evaluation after a
// column command: the data bus it occupied gates every rank's columns.
func (ch *channel) dirtyColumns() {
	for rk := range ch.memo {
		ch.memo[rk].clean &^= 1 << setColumn
	}
}

// rekey invalidates every demand set and cached pick after a drain toggle,
// which changes the sched mask and the writes' keys.
func (ch *channel) rekey() {
	for rk := range ch.memo {
		ch.memo[rk].clean = 0
	}
	ch.epoch++
}

// resetIndexes returns every index to its just-constructed state, reusing
// backing storage.
func (ch *channel) resetIndexes() {
	for i := range ch.bankqs {
		ch.bankqs[i].reads = ch.bankqs[i].reads[:0]
		ch.bankqs[i].writes = ch.bankqs[i].writes[:0]
		ch.bankqs[i].hits = 0
		ch.bankqs[i].pick = nil
		ch.bankqs[i].pickEpoch = 0
	}
	clear(ch.busy)
	clear(ch.open)
	clear(ch.hit)
	clear(ch.reads)
	clear(ch.attn)
	ch.nreads, ch.nwrites = 0, 0
	ch.markedLeft = 0
	ch.admits = 0
	// No set is clean and the channel is not settled, as in a fresh one.
	// Nothing would reuse them anyway (the first admission to each rank
	// flips a busy bit, which dirties its sets and wakes the channel), but
	// Reset's contract is the just-constructed state, and
	// TestResetRerunIdentity asserts it.
	clear(ch.memo)
	ch.epoch = 1
	ch.settled = false
}
