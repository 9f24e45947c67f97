// Per-channel queue state and the incrementally maintained scheduler
// indexes (DESIGN.md §13). The read and write queues stay the source of
// truth for admission, backpressure, and PAR-BS batch formation; alongside
// them the channel keeps per-bank FIFO buckets, per-rank demand counters,
// per-bank open-row hit counters, and an attention set of banks with
// defense debt. Every index is updated at the event that changes it
// (enqueue, completion, row open/close, command execution), so the
// scheduler's per-step cost is O(banks + issuable candidates) instead of
// O(banks × queue). The reference scheduler in reference_test.go ignores
// the indexes and re-derives everything by scanning; the differential test
// pins the two to the same issued-command trace.
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
	coreRank   map[int]int  // PAR-BS thread ranking for the current batch
	wake       clock.Time

	// Incremental scheduler indexes (DESIGN.md §13). Maintained on every
	// queue/row/command transition; consumed by scheduler.go.
	bankqs     []bankq // per bank: FIFO buckets + open-row hit count
	rankDemand []int   // per rank: queued requests across both queues
	attn       []bool  // per bank: pending ARR or mitigation debt
	attnCount  int     // number of true entries in attn
	markedLeft int     // marked PAR-BS requests still in the read queue
	admits     int64   // admission stamp counter (Request.stamp source)

	// Per-step scratch, reused across the event loop's per-tREFI refresh
	// scans so the hot path stays allocation-free.
	refreshScratch []bool // per rank: refresh due and not postponed

	// PAR-BS batch-formation scratch (cleared and refilled per batch).
	batchSlot  map[batchSlot]int // marked requests per (core, rank, bank)
	batchLoad  map[int]int       // marked requests per core
	batchCores []int             // cores sorted by marked load
}

// batchSlot keys the PAR-BS per-(core, bank) marking cap.
type batchSlot struct{ core, rank, bank int }

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
// bank bucket, and updates the rank-demand and open-row hit counters. The
// caller has already appended it to the matching global queue.
func (ch *channel) admit(q *Request, toWQ bool) {
	q.stamp = ch.admits
	ch.admits++
	q.fromWQ = toWQ
	i := ch.flat(q.Addr.Rank, q.Addr.Bank)
	bq := &ch.bankqs[i]
	if toWQ {
		//twicelint:allocok amortized growth of the reused per-bank write bucket
		bq.writes = append(bq.writes, q)
	} else {
		//twicelint:allocok amortized growth of the reused per-bank read bucket
		bq.reads = append(bq.reads, q)
	}
	ch.rankDemand[q.Addr.Rank]++
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
	ch.rankDemand[q.Addr.Rank]--
	if ch.banks[i].open == q.Addr.Row {
		bq.hits--
	}
	if q.marked && !q.fromWQ {
		ch.markedLeft--
	}
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
	for i := range ch.rankDemand {
		ch.rankDemand[i] = 0
	}
	for i := range ch.attn {
		ch.attn[i] = false
	}
	ch.attnCount = 0
	ch.markedLeft = 0
	ch.admits = 0
}
