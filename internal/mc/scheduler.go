// The indexed per-channel scheduler. One step costs O(ranks + busy banks +
// issuable candidates): refresh postponement tests the rank's bits in the
// busy-bank mask, the attention loop is gated on the attention-set count,
// and the demand loop walks the mask's set bits, so it visits only banks
// whose buckets hold queued work. Selection is byte-identical to the naive
// reference scheduler (reference_test.go): classes 0–2 are considered in the
// same rank-major bank order (first-considered wins their seq-0 ties), and
// demand candidates carry demandKey values that order exactly like the
// reference's pool-position sequence numbers (DESIGN.md §13).
package mc

import (
	"math/bits"

	"repro/internal/clock"
	"repro/internal/dram"
)

// op is a command opcode for a scheduling candidate. Candidates carry an
// opcode plus operands instead of a ready-to-run closure: closure allocation
// here would dominate the event loop (it was ~97% of a run's allocations).
type op int8

const (
	opNone   op = iota
	opPRE       // precharge bank (rank, bank)
	opREF       // auto-refresh rank (rank)
	opARR       // adjacent-row refresh on bank (rank, bank)
	opMit       // one unit of mitigation debt on bank (rank, bank)
	opACT       // activate req's row (req)
	opColumn    // column access for req (req)
)

// candidate is one issuable (or future) command.
type candidate struct {
	t          clock.Time
	class      int   // 0 refresh, 1 ARR, 2 mitigation, 3 demand
	seq        int64 // tie-break within class (scheduler order for demand)
	op         op
	rank, bank int
	req        *Request
}

// step issues at most one DRAM command for the channel at time now,
// returning the time of the next step. A return > now means nothing was
// issuable at now.
func (ch *channel) step(now clock.Time) clock.Time {
	s := ch.sys
	p := &s.cfg.DRAM
	best := candidate{t: clock.Never}
	earliest := clock.Never

	//twicelint:allocok non-escaping closure; escape analysis keeps it on the stack
	consider := func(c candidate) {
		earliest = clock.Min(earliest, c.t)
		if c.t > now {
			return
		}
		if best.op == opNone || c.class < best.class || (c.class == best.class && c.seq < best.seq) {
			best = c
		}
	}

	refreshPending := ch.refreshScratch
	for i := range refreshPending {
		refreshPending[i] = false
	}
	for rk := 0; rk < p.RanksPerChannel; rk++ {
		due := ch.refreshDue[rk]
		if now < due {
			earliest = clock.Min(earliest, due)
			continue
		}
		// JEDEC postponement: defer the REF while demand for this rank is
		// pending and the debt stays under the budget; the hard deadline
		// forces the catch-up burst.
		if pp := s.cfg.RefreshPostpone; pp > 0 {
			lag := int((now - due) / p.TREFI)
			if lag < pp && ch.rankBusy(rk) {
				earliest = clock.Min(earliest, due+clock.Time(pp)*p.TREFI)
				continue
			}
		}
		refreshPending[rk] = true
		rankID := dram.RankID{Channel: ch.idx, Rank: rk}
		allClosed := true
		base := rk * p.BanksPerRank
		for ba := 0; ba < p.BanksPerRank; ba++ {
			if ch.banks[base+ba].open >= 0 {
				allClosed = false
				id := ch.bankID(rk, ba)
				consider(candidate{t: s.chk.EarliestPRE(id, now), class: 0, op: opPRE, rank: rk, bank: ba})
			}
		}
		if allClosed {
			consider(candidate{t: s.chk.EarliestREF(rankID, now), class: 0, op: opREF, rank: rk})
		}
	}

	// Attention loop: only banks with pending ARR or mitigation debt. The
	// membership bits are re-derived per bank (a stale-true entry costs one
	// wasted check, never a wrong candidate); the count only gates whether
	// the loop runs at all.
	if ch.attnCount > 0 {
		for rk := 0; rk < p.RanksPerChannel; rk++ {
			base := rk * p.BanksPerRank
			for ba := 0; ba < p.BanksPerRank; ba++ {
				i := base + ba
				if !ch.attn[i] {
					continue
				}
				id := ch.bankID(rk, ba)
				b := &ch.banks[i]
				hasARR := s.rcd.HasPendingARR(id)
				if !hasARR && len(b.mit) == 0 {
					continue
				}
				if b.open >= 0 {
					// Close the bank once no queued request still hits the
					// open row, so in-flight accesses are not starved.
					if ch.bankqs[i].hits == 0 {
						class := 2
						if hasARR {
							class = 1
						}
						consider(candidate{t: s.chk.EarliestPRE(id, now), class: class, op: opPRE, rank: rk, bank: ba})
					}
					continue
				}
				if hasARR {
					consider(candidate{t: s.chk.EarliestARR(id, now), class: 1, op: opARR, rank: rk, bank: ba})
					continue
				}
				consider(candidate{t: s.chk.EarliestACT(id, now), class: 2, op: opMit, rank: rk, bank: ba})
			}
		}
	}

	ch.scheduleDemand(now, refreshPending, consider)

	if best.op != opNone {
		ch.exec(best)
		return now // more work may be issuable at the same instant
	}
	if earliest <= now {
		// Defensive: nothing ran but a candidate claimed readiness — avoid
		// spinning by nudging past the instant.
		return now + 1
	}
	return earliest
}

// scheduleDemand emits one candidate per bank with issuable demand work: the
// minimum-key row hit, the bank's ACT with the minimum-key miss, or the
// first-in-pool-order conflicting PRE — exactly the candidates that could
// win the reference's per-request emission (all same-bank candidates of one
// kind share an issue time, so only the best key matters; a future time
// contributes to the earliest-work bound without a key at all).
func (ch *channel) scheduleDemand(now clock.Time, refreshPending []bool, consider func(candidate)) {
	s := ch.sys
	if s.cfg.Scheduler == PARBS {
		ch.refreshBatch()
	}
	ch.updateDrain()
	bpr := s.cfg.DRAM.BanksPerRank
	// Set bits ascend in flat (rank-major) bank order, the order the
	// reference considers banks in.
	for w, word := range ch.busy {
		for ; word != 0; word &= word - 1 {
			i := w<<6 + bits.TrailingZeros64(word)
			rk, ba := i/bpr, i%bpr
			if refreshPending[rk] {
				continue // drain the rank for refresh
			}
			bq := &ch.bankqs[i]
			nr, nw := len(bq.reads), len(bq.writes)
			b := &ch.banks[i]
			id := ch.bankID(rk, ba)
			switch {
			case b.open >= 0 && bq.hits > 0:
				// Column accesses to the open row always proceed (they drain
				// the row so mitigation can precharge) and suppress the
				// conflicting PRE.
				t := s.chk.EarliestColumn(id, now)
				if t > now {
					consider(candidate{t: t, class: 3, op: opColumn})
					continue
				}
				q, seq := ch.bestHit(bq, b.open)
				consider(candidate{t: t, class: 3, seq: seq, op: opColumn, req: q})
			case b.open >= 0:
				// Row conflict. Opening a new row waits until the bank's
				// mitigation debt is paid; otherwise plan one PRE carrying
				// the key of the first conflicting request in pool order.
				if s.rcd.HasPendingARR(id) || len(b.mit) > 0 {
					continue
				}
				var first *Request
				switch {
				case nr > 0:
					first = bq.reads[0]
				case ch.draining && nw > 0:
					first = bq.writes[0]
				default:
					continue // writes outside a drain burst never conflict-PRE
				}
				t := s.chk.EarliestPRE(id, now)
				first.neededPRE = true
				consider(candidate{t: t, class: 3, seq: ch.demandKey(first, false), op: opPRE, rank: rk, bank: ba})
			default:
				// Bank closed: one ACT candidate for the minimum-key miss.
				if s.rcd.HasPendingARR(id) || len(b.mit) > 0 {
					continue
				}
				if nr == 0 && (!ch.draining || nw == 0) {
					continue // only non-drain writes queued: not schedulable
				}
				if s.chk.RankBlockedUntil(id.RankID()) > now {
					for _, q := range bq.reads {
						ch.countNack(q, id, now)
					}
					if ch.draining {
						for _, q := range bq.writes {
							ch.countNack(q, id, now)
						}
					}
				}
				t := s.chk.EarliestACT(id, now)
				if t > now {
					consider(candidate{t: t, class: 3, op: opACT})
					continue
				}
				q, seq := ch.bestMiss(bq)
				consider(candidate{t: t, class: 3, seq: seq, op: opACT, req: q})
			}
		}
	}
}

// bestHit returns the pool-eligible request targeting the bank's open row
// with the smallest demand key. Every queued request matching the open row
// is pool-eligible: reads always, buffered writes via the drain burst or the
// open-row completion rule.
func (ch *channel) bestHit(bq *bankq, row int) (*Request, int64) {
	var best *Request
	var bestKey int64
	for _, q := range bq.reads {
		if q.Addr.Row != row {
			continue
		}
		if k := ch.demandKey(q, true); best == nil || k < bestKey {
			best, bestKey = q, k
		}
	}
	for _, q := range bq.writes {
		if q.Addr.Row != row {
			continue
		}
		if k := ch.demandKey(q, true); best == nil || k < bestKey {
			best, bestKey = q, k
		}
	}
	return best, bestKey
}

// bestMiss returns the pool-eligible request with the smallest demand key
// for a closed bank (every bucketed request is a miss; buffered writes join
// only during a drain burst).
func (ch *channel) bestMiss(bq *bankq) (*Request, int64) {
	var best *Request
	var bestKey int64
	for _, q := range bq.reads {
		if k := ch.demandKey(q, false); best == nil || k < bestKey {
			best, bestKey = q, k
		}
	}
	if ch.draining {
		for _, q := range bq.writes {
			if k := ch.demandKey(q, false); best == nil || k < bestKey {
				best, bestKey = q, k
			}
		}
	}
	return best, bestKey
}

// demandKey orders demand candidates: PAR-BS prioritises marked requests and
// lighter threads; both schedulers serve row hits before misses and then go
// oldest-first. The key compares identically to the reference scheduler's
// pool-position seq: the (fromWQ, stamp) low bits reproduce "reads in
// admission order, then buffered writes in admission order" — queue removals
// keep each queue in stamp order, and the fromWQ bit puts the whole read
// queue ahead of the write buffer, exactly like pool concatenation.
func (ch *channel) demandKey(q *Request, hit bool) int64 {
	var seq int64
	// During a drain burst, buffered writes count as first-class work so a
	// steady read stream cannot starve the write buffer into backpressure.
	marked := q.marked || (ch.draining && q.Write)
	if ch.sys.cfg.Scheduler == PARBS && !marked {
		seq |= 1 << 62
	}
	if !hit {
		seq |= 1 << 61
	}
	if ch.sys.cfg.Scheduler == PARBS {
		seq |= int64(ch.coreRank[q.Core]) << 45
	}
	if q.fromWQ {
		seq |= 1 << 44
	}
	return seq | q.stamp
}

// updateDrain toggles the write-drain burst by the watermarks: entered at
// WriteHigh occupancy (or an idle read queue), left at WriteLow. Matches the
// toggle the reference performs inside drainSet.
func (ch *channel) updateDrain() {
	cfg := &ch.sys.cfg
	if cfg.WriteQueueDepth == 0 {
		return
	}
	switch {
	case ch.draining && len(ch.wqueue) <= cfg.WriteLow:
		ch.draining = false
	case !ch.draining && (len(ch.wqueue) >= cfg.WriteHigh || (len(ch.queue) == 0 && len(ch.wqueue) > 0)):
		ch.draining = true
	}
}

// refreshBatch forms a new PAR-BS batch when the current one has drained:
// the oldest BatchCap requests per (core, bank) are marked, and cores are
// ranked by their total marked load (lightest first). The markedLeft counter
// replaces the reference's per-step queue scan for leftover marks.
func (ch *channel) refreshBatch() {
	if ch.markedLeft > 0 || len(ch.queue) == 0 {
		return
	}
	perSlot, load := ch.batchSlot, ch.batchLoad
	clear(perSlot)
	clear(load)
	nb := len(ch.banks)
	for _, q := range ch.queue {
		k := q.Core*nb + ch.flat(q.Addr.Rank, q.Addr.Bank)
		if perSlot[k] < ch.sys.cfg.BatchCap {
			perSlot[k]++
			q.marked = true
			ch.markedLeft++
			load[q.Core]++
		}
	}
	ch.rankCores(load)
}

// rankCores installs the PAR-BS thread ranking for a fresh batch: cores with
// a non-zero load (marked requests), sorted by load ascending (shortest job
// first), core id breaking ties. Every other core ranks 0.
func (ch *channel) rankCores(load []int) {
	cores := ch.batchCores[:0]
	for c, n := range load {
		if n > 0 {
			//twicelint:allocok extends batchCores scratch, bounded by the core count
			cores = append(cores, c)
		}
	}
	ch.batchCores = cores
	// Insertion sort (tiny n) of the id-ordered list; stability keeps ties
	// in id order.
	for i := 1; i < len(cores); i++ {
		for j := i; j > 0 && load[cores[j]] < load[cores[j-1]]; j-- {
			cores[j], cores[j-1] = cores[j-1], cores[j]
		}
	}
	clear(ch.coreRank)
	for rank, c := range cores {
		ch.coreRank[c] = rank
	}
}
