// The indexed per-channel scheduler. A step makes one pass over the
// channel's ranks and costs O(ranks + attention banks + candidate banks),
// with a few comparisons per candidate bank: each rank's attention word
// gives the banks that owe defense work, and its column, conflict-PRE and
// ACT sets come from its bank-state words by mask arithmetic, with one
// timing-checker query per set for every bank's earliest time. Selection is byte-identical to the naive
// reference scheduler (reference_test.go): within each of classes 0–2,
// candidates are considered in the same rank-major bank order
// (first-considered wins their seq-0 ties), and demand candidates carry
// unique demandKey values that order exactly like the reference's
// pool-position sequence numbers (DESIGN.md §13).
package mc

import (
	"fmt"
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

	// Batch formation and the drain toggle feed only the demand keys and
	// sets, so they run once, before the pass.
	ch.refreshBatch()
	ch.updateDrain()
	// One pass over the ranks. Within each class, candidates are considered
	// in rank-major, ascending-bank order, the reference's order, so the
	// first one considered still wins the seq-0 ties of classes 0–2; demand
	// keys are unique, so interleaving the classes by rank changes nothing.
	for rk := 0; rk < p.RanksPerChannel; rk++ {
		// Attention: banks with pending ARR or mitigation debt.
		for word := ch.attn[rk]; word != 0; word &= word - 1 {
			ba := bits.TrailingZeros64(word)
			id := ch.bankID(rk, ba)
			i := ch.flat(rk, ba)
			hasARR := s.rcd.HasPendingARR(id)
			if ch.banks[i].open >= 0 {
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

		if due := ch.refreshDue[rk]; now < due {
			earliest = clock.Min(earliest, due)
		} else {
			// Refresh due: precharge every open bank, then REF, and drain
			// the rank's demand meanwhile.
			for m := ch.open[rk]; m != 0; m &= m - 1 {
				ba := bits.TrailingZeros64(m)
				consider(candidate{t: s.chk.EarliestPRE(ch.bankID(rk, ba), now), class: 0, op: opPRE, rank: rk, bank: ba})
			}
			if ch.open[rk] == 0 {
				rankID := dram.RankID{Channel: ch.idx, Rank: rk}
				consider(candidate{t: s.chk.EarliestREF(rankID, now), class: 0, op: opREF, rank: rk})
			}
			continue
		}
		if ch.busy[rk] != 0 {
			ch.scheduleDemand(rk, now, consider)
		}
	}

	if best.op != opNone {
		ch.settled = false
		ch.exec(best)
		return now // more work may be issuable at the same instant
	}
	if earliest <= now {
		// Every candidate carries an op, so one at or before now became
		// best; the direct bound (a refresh due) lies past now, and so
		// does every reused set time. A time at or before now here is a
		// scheduler bug, and returning it would spin advanceTo at this
		// instant forever.
		//twicelint:allocok panic path: the simulation is already dead
		panic(fmt.Sprintf("mc: internal error: channel %d found work at %v, not after the step at %v, yet nothing to issue", ch.idx, earliest, now))
	}
	ch.settled = true
	return earliest
}

// scheduleDemand emits the demand candidates of rank rk, which has queued
// work and no refresh pending. The rank's bank-state words give three
// candidate sets by mask arithmetic, and the timing checker answers each set
// in one query:
//
//   - column: banks with queued hits on the open row, each with its
//     minimum-key hit;
//   - conflict PRE: the other open banks, each with the key of its first
//     conflicting request in pool order;
//   - ACT: closed banks, each with its minimum-key miss.
//
// A bank with defense debt opens no new row, and buffered writes outside a
// drain burst neither conflict-PRE nor ACT: the sched mask limits both sets.
// All same-bank candidates of one kind share an issue time, so a bank's best
// key is the only one that could win the reference's per-request emission.
// Only banks ready at now get a keyed candidate; a set with none ready
// contributes its minimum time to the earliest-work bound. Demand keys end in
// unique stamps, so the order candidates are considered in does not matter.
//
// A set whose memo is clean with a time past now contributes that time
// without being evaluated: nothing in it is ready, and evaluating it again
// would only repeat the neededPRE marks and nack counts its last evaluation
// made (nackWindow dedupes the counts, and an admission that would owe a new
// one dirties the ACT set). Each bank's pick comes from its cache while the
// cache is valid.
func (ch *channel) scheduleDemand(rk int, now clock.Time, consider func(candidate)) {
	s := ch.sys
	m := &ch.memo[rk]
	busy := ch.busy[rk]
	rankID := dram.RankID{Channel: ch.idx, Rank: rk}
	base := rk * s.cfg.DRAM.BanksPerRank
	// Column accesses to the open row always proceed (they drain the row
	// so mitigation can precharge) and suppress the conflicting PRE.
	hit := ch.hit[rk]
	if hit != 0 {
		if m.fresh(setColumn, now) {
			consider(candidate{t: m.t[setColumn], class: 3, op: opColumn})
		} else {
			t, ready := s.chk.EarliestColumns(rankID, hit, now)
			m.store(setColumn, t)
			if ready == 0 {
				consider(candidate{t: t, class: 3, op: opColumn})
			}
			for ; ready != 0; ready &= ready - 1 {
				i := base + bits.TrailingZeros64(ready)
				bq := &ch.bankqs[i]
				if bq.pickEpoch != ch.epoch {
					bq.pick, bq.pickKey = ch.bestHit(bq, ch.banks[i].open)
					bq.pickEpoch = ch.epoch
				}
				consider(candidate{t: now, class: 3, seq: bq.pickKey, op: opColumn, req: bq.pick})
			}
		}
	}
	if busy&^hit == 0 {
		return // every busy bank has hits: no PRE or ACT candidate
	}
	// Banks whose queued requests may open a row: those with reads, or
	// with any request during a drain burst, and no defense debt.
	sched := ch.reads[rk]
	if ch.draining {
		sched = busy
	}
	sched &^= ch.attn[rk]
	open := ch.open[rk]
	if pre := open &^ hit & sched; pre != 0 {
		if m.fresh(setPRE, now) {
			consider(candidate{t: m.t[setPRE], class: 3, op: opPRE})
		} else {
			earliest := clock.Never
			for ; pre != 0; pre &= pre - 1 {
				ba := bits.TrailingZeros64(pre)
				bq := &ch.bankqs[base+ba]
				if bq.pickEpoch != ch.epoch {
					// The first conflicting request in pool order: the
					// oldest read, or in a drain burst with no read
					// queued, the oldest write. Marking it here marks it
					// for as long as the pick stays cached.
					var first *Request
					if len(bq.reads) > 0 {
						first = bq.reads[0]
					} else {
						first = bq.writes[0]
					}
					first.neededPRE = true
					bq.pick, bq.pickKey = first, ch.demandKey(first, false)
					bq.pickEpoch = ch.epoch
				}
				t := s.chk.EarliestPRE(ch.bankID(rk, ba), now)
				earliest = clock.Min(earliest, t)
				consider(candidate{t: t, class: 3, seq: bq.pickKey, op: opPRE, rank: rk, bank: ba})
			}
			m.store(setPRE, earliest)
		}
	}
	act := sched &^ open
	if act == 0 {
		return
	}
	if m.fresh(setACT, now) {
		consider(candidate{t: m.t[setACT], class: 3, op: opACT})
		return
	}
	if s.chk.RankBlockedUntil(rankID) > now {
		for w := act; w != 0; w &= w - 1 {
			ba := bits.TrailingZeros64(w)
			bq, id := &ch.bankqs[base+ba], ch.bankID(rk, ba)
			for _, q := range bq.reads {
				ch.countNack(q, id, now)
			}
			if ch.draining {
				for _, q := range bq.writes {
					ch.countNack(q, id, now)
				}
			}
		}
	}
	t, ready := s.chk.EarliestACTs(rankID, act, now)
	m.store(setACT, t)
	if ready == 0 {
		consider(candidate{t: t, class: 3, op: opACT})
	}
	for ; ready != 0; ready &= ready - 1 {
		bq := &ch.bankqs[base+bits.TrailingZeros64(ready)]
		if bq.pickEpoch != ch.epoch {
			bq.pick, bq.pickKey = ch.bestMiss(bq)
			bq.pickEpoch = ch.epoch
		}
		consider(candidate{t: now, class: 3, seq: bq.pickKey, op: opACT, req: bq.pick})
	}
}

// bestHit returns the pool-eligible request targeting the bank's open row
// with the smallest demand key. Every queued request matching the open row
// is pool-eligible: reads always, buffered writes via the drain burst or the
// open-row completion rule. The first read with a settled key ends the
// search.
func (ch *channel) bestHit(bq *bankq, row int) (*Request, int64) {
	var best *Request
	var bestKey int64
	for _, q := range bq.reads {
		if q.Addr.Row != row {
			continue
		}
		k := ch.demandKey(q, true)
		if settled(k) {
			return q, k
		}
		if best == nil || k < bestKey {
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
// only during a drain burst). The first read with a settled key ends the
// search.
func (ch *channel) bestMiss(bq *bankq) (*Request, int64) {
	var best *Request
	var bestKey int64
	for _, q := range bq.reads {
		k := ch.demandKey(q, false)
		if settled(k) {
			return q, k
		}
		if best == nil || k < bestKey {
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

// demandKey orders demand candidates the PAR-BS way: marked requests first,
// then row hits before misses, then lighter threads, then oldest-first. The
// key compares identically to the reference scheduler's pool-position seq:
// the (write, stamp) low bits reproduce "reads in admission order, then
// buffered writes in admission order" — queue removals keep each queue in
// stamp order, and the write bit puts the whole read queue ahead of the
// write buffer, exactly like pool concatenation.
func (ch *channel) demandKey(q *Request, hit bool) int64 {
	var seq int64
	// During a drain burst, buffered writes count as first-class work so a
	// steady read stream cannot starve the write buffer into backpressure.
	if !q.marked && !(ch.draining && q.Write) {
		seq |= 1 << 62
	}
	if !hit {
		seq |= 1 << 61
	}
	seq |= int64(ch.coreRank[q.Core]) << 45
	if q.Write {
		seq |= 1 << 44
	}
	return seq | q.stamp
}

// settled reports whether a read's demand key has no bit set above the
// stamp except the miss bit: the read is marked, its core ranks first, and
// it sits in the read queue. Every other request of the same bank and kind
// has a larger key: an earlier read with a smaller stamp has a higher bit
// set (else it would have settled first), a later read has a larger stamp,
// and a buffered write carries the write bit. So the first settled read in
// the bank's stamp-ordered read bucket is its best candidate.
func settled(k int64) bool { return k&^(1<<61)>>44 == 0 }

// updateDrain toggles the write-drain burst by the watermarks: entered at
// WriteHigh occupancy (or an idle read queue), left at WriteLow. Matches the
// toggle the reference performs inside drainSet. A toggle changes the sched
// masks and the writes' keys, so it dirties every set and cached pick.
func (ch *channel) updateDrain() {
	if ch.drainFlips() {
		ch.draining = !ch.draining
		ch.rekey()
	}
}

// drainFlips reports whether updateDrain would toggle the burst now.
func (ch *channel) drainFlips() bool {
	cfg := &ch.sys.cfg
	if ch.draining {
		return ch.nwrites <= cfg.WriteLow
	}
	return ch.nwrites >= cfg.WriteHigh || (ch.nreads == 0 && ch.nwrites > 0)
}

// refreshBatch forms a new PAR-BS batch when the current one has drained:
// the oldest BatchCap reads per (core, bank) are marked, walking each read
// bucket in stamp order, and cores are ranked by their total marked load
// (lightest first). The markedLeft counter replaces the reference's
// per-step queue scan for leftover marks. A batch moves demand keys but no
// set's time, so it bumps the pick epoch only.
func (ch *channel) refreshBatch() {
	if ch.markedLeft > 0 || ch.nreads == 0 {
		return
	}
	perSlot, load := ch.batchSlot, ch.batchLoad
	clear(perSlot)
	clear(load)
	nb, bpr := len(ch.banks), ch.sys.cfg.DRAM.BanksPerRank
	for rk, w := range ch.reads {
		for ; w != 0; w &= w - 1 {
			i := rk*bpr + bits.TrailingZeros64(w)
			for _, q := range ch.bankqs[i].reads {
				k := q.Core*nb + i
				if perSlot[k] < ch.sys.cfg.BatchCap {
					perSlot[k]++
					q.marked = true
					ch.markedLeft++
					load[q.Core]++
				}
			}
		}
	}
	ch.rankCores(load)
	ch.epoch++
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
