// Per-channel queue state and the incrementally maintained scheduler
// indexes (DESIGN.md §13). The read and write queues stay the source of
// truth for admission, backpressure, and PAR-BS batch formation; alongside
// them the channel keeps per-bank FIFO buckets, per-bank open-row hit
// counters, and five bank-state words per rank (busy, open, hit, reads,
// attention; bit b is bank b of the rank). Every index is updated at the
// event that changes it (enqueue, completion, row open/close, command
// execution), so the scheduler derives each rank's candidate sets with a
// few mask operations and its per-step cost is O(ranks + attention banks +
// candidate banks) instead of O(banks × queue). The reference scheduler in
// reference_test.go ignores the indexes and re-derives everything by
// scanning; the differential test pins the two to the same issued-command
// trace.
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

// bankq is one bank's slice of the channel's demand queues: the requests of
// the read queue and the write buffer that target this bank, each in
// admission (stamp) order, plus the count of queued requests hitting the
// bank's currently open row. The buckets hold the same *Request pointers as
// the global queues; membership changes in lockstep (admit/unindex).
type bankq struct {
	reads  []*Request // bucket of ch.queue requests for this bank
	writes []*Request // bucket of ch.wqueue requests for this bank
	hits   int        // queued requests (either bucket) targeting the open row
}

// channel owns one memory channel's queue and banks.
type channel struct {
	sys        *System
	idx        int
	queue      []*Request   // demand reads (and writes when buffering is off)
	wqueue     []*Request   // posted writes awaiting drain
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
	attn       []uint64 // pending ARR or mitigation debt; step clears stale bits before use
	markedLeft int      // marked PAR-BS requests still in the read queue
	admits     int64    // admission stamp counter (Request.stamp source)

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

// admit indexes a freshly accepted request: stamps it, appends it to its
// bank bucket, marks the bank busy, and updates the open-row hit counter.
// The caller has already appended it to the matching global queue.
func (ch *channel) admit(q *Request, toWQ bool) {
	q.stamp = ch.admits
	ch.admits++
	q.fromWQ = toWQ
	if q.Core >= len(ch.coreRank) {
		ch.growCores(q.Core + 1)
	}
	rk, bit := q.Addr.Rank, uint64(1)<<q.Addr.Bank
	i := ch.flat(rk, q.Addr.Bank)
	bq := &ch.bankqs[i]
	if toWQ {
		//twicelint:allocok amortized growth of the reused per-bank write bucket
		bq.writes = append(bq.writes, q)
	} else {
		//twicelint:allocok amortized growth of the reused per-bank read bucket
		bq.reads = append(bq.reads, q)
		ch.reads[rk] |= bit
	}
	ch.busy[rk] |= bit
	if ch.banks[i].open == q.Addr.Row {
		bq.hits++
		ch.hit[rk] |= bit
	}
	if q.marked && !toWQ {
		// Defensive: a recycled request arriving pre-marked still counts
		// toward the batch-drain check, exactly as the reference's queue
		// scan would see it.
		ch.markedLeft++
	}
}

// unindex removes a completed request from its bank bucket and counters.
// It must run while the bank's row state still matches the request's last
// access (doColumn calls it before any page-policy precharge).
func (ch *channel) unindex(q *Request) {
	rk, bit := q.Addr.Rank, uint64(1)<<q.Addr.Bank
	i := ch.flat(rk, q.Addr.Bank)
	bq := &ch.bankqs[i]
	fifo := bq.reads
	if q.fromWQ {
		fifo = bq.writes
	}
	for j, r := range fifo {
		if r == q {
			fifo = append(fifo[:j], fifo[j+1:]...)
			break
		}
	}
	if q.fromWQ {
		bq.writes = fifo
	} else {
		bq.reads = fifo
		if len(fifo) == 0 {
			ch.reads[rk] &^= bit
		}
	}
	if len(bq.reads) == 0 && len(bq.writes) == 0 {
		ch.busy[rk] &^= bit
	}
	if ch.banks[i].open == q.Addr.Row {
		bq.hits--
		if bq.hits == 0 {
			ch.hit[rk] &^= bit
		}
	}
	if q.marked && !q.fromWQ {
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
// the bank's open bit, and recounts its open-row hit counter. The scan is
// bounded by the bank's own bucket occupancy and runs once per row
// activation, not per scheduler step.
func (ch *channel) onRowOpen(rk, ba, row int) {
	i := ch.flat(rk, ba)
	ch.banks[i].open = row
	ch.banks[i].hits = 0
	bq := &ch.bankqs[i]
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
	ch.open[rk] &^= 1 << ba
	ch.hit[rk] &^= 1 << ba
}

// updateAttn re-derives the bank's attention bit: it owes an adjacent-row
// refresh or carries mitigation debt. Called after every event that can
// file or consume such work (ACT observation, ARR take, mit pop), and by the
// attention loop for a bit the RCD's own Reset left stale.
func (ch *channel) updateAttn(id dram.BankID) {
	if ch.sys.rcd.HasPendingARR(id) || len(ch.bank(id.Rank, id.Bank).mit) > 0 {
		ch.attn[id.Rank] |= 1 << id.Bank
	} else {
		ch.attn[id.Rank] &^= 1 << id.Bank
	}
}

// resetIndexes returns every index to its just-constructed state, reusing
// backing storage.
func (ch *channel) resetIndexes() {
	for i := range ch.bankqs {
		ch.bankqs[i].reads = ch.bankqs[i].reads[:0]
		ch.bankqs[i].writes = ch.bankqs[i].writes[:0]
		ch.bankqs[i].hits = 0
	}
	clear(ch.busy)
	clear(ch.open)
	clear(ch.hit)
	clear(ch.reads)
	clear(ch.attn)
	ch.markedLeft = 0
	ch.admits = 0
}
