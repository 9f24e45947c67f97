// Per-channel queue state and the incrementally maintained scheduler
// indexes (DESIGN.md §13). The read and write queues stay the source of
// truth for admission, backpressure, and PAR-BS batch formation; alongside
// them the channel keeps per-bank FIFO buckets, a busy-bank bitmask,
// per-bank open-row hit counters, and an attention set of banks with
// defense debt. Every index is updated at the event that changes it
// (enqueue, completion, row open/close, command execution), so the
// scheduler's per-step cost is O(ranks + busy banks + issuable candidates)
// instead of O(banks × queue). The reference scheduler in reference_test.go
// ignores the indexes and re-derives everything by scanning; the
// differential test pins the two to the same issued-command trace.
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
	// queue/row/command transition; consumed by scheduler.go.
	bankqs     []bankq  // per bank: FIFO buckets + open-row hit count
	busy       []uint64 // bit per bank: some bucket holds a queued request
	attn       []bool   // per bank: pending ARR or mitigation debt
	attnCount  int      // number of true entries in attn
	markedLeft int      // marked PAR-BS requests still in the read queue
	admits     int64    // admission stamp counter (Request.stamp source)

	// Per-step scratch, reused across the event loop's per-tREFI refresh
	// scans so the hot path stays allocation-free.
	refreshScratch []bool // per rank: refresh due and not postponed

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
	i := ch.flat(q.Addr.Rank, q.Addr.Bank)
	bq := &ch.bankqs[i]
	if toWQ {
		//twicelint:allocok amortized growth of the reused per-bank write bucket
		bq.writes = append(bq.writes, q)
	} else {
		//twicelint:allocok amortized growth of the reused per-bank read bucket
		bq.reads = append(bq.reads, q)
	}
	ch.busy[i>>6] |= 1 << (i & 63)
	if ch.banks[i].open == q.Addr.Row {
		bq.hits++
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
	i := ch.flat(q.Addr.Rank, q.Addr.Bank)
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
	}
	if len(bq.reads) == 0 && len(bq.writes) == 0 {
		ch.busy[i>>6] &^= 1 << (i & 63)
	}
	if ch.banks[i].open == q.Addr.Row {
		bq.hits--
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

// rankBusy reports whether any bank of rank rk holds queued demand. Only
// refresh postponement asks, and only while a refresh is due.
func (ch *channel) rankBusy(rk int) bool {
	bpr := ch.sys.cfg.DRAM.BanksPerRank
	for i := rk * bpr; i < (rk+1)*bpr; i++ {
		if ch.busy[i>>6]&(1<<(i&63)) != 0 {
			return true
		}
	}
	return false
}

// onRowOpen recounts the bank's open-row hit counter after an ACT. The scan
// is bounded by the bank's own bucket occupancy and runs once per row
// activation, not per scheduler step.
func (ch *channel) onRowOpen(i, row int) {
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
}

// onRowClose zeroes the bank's open-row hit counter after a precharge.
func (ch *channel) onRowClose(i int) { ch.bankqs[i].hits = 0 }

// updateAttn re-derives the bank's attention-set membership: it owes an
// adjacent-row refresh or carries mitigation debt. Called after every event
// that can file or consume such work (ACT observation, ARR take, mit pop).
func (ch *channel) updateAttn(i int, id dram.BankID) {
	has := ch.sys.rcd.HasPendingARR(id) || len(ch.banks[i].mit) > 0
	if has == ch.attn[i] {
		return
	}
	ch.attn[i] = has
	if has {
		ch.attnCount++
	} else {
		ch.attnCount--
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
	for i := range ch.attn {
		ch.attn[i] = false
	}
	ch.attnCount = 0
	ch.markedLeft = 0
	ch.admits = 0
}
