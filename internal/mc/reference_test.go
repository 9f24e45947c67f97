// The naive reference scheduler, kept as the behavioural ground truth for
// the indexed one (scheduler.go). It keeps its own admission-ordered read
// queue and write buffer per channel, re-derives every scheduling fact by
// scanning them each step — O(banks × queue) — and deliberately ignores the
// buckets and bank-state words (which exec still maintains underneath it),
// so the randomized differential test genuinely cross-checks the indexes
// against first principles rather than against themselves. A refScheduler
// drives a System with it in place of System.Enqueue and System.Advance.
package mc

import (
	"cmp"
	"slices"

	"repro/internal/clock"
	"repro/internal/dram"
)

// refScratch is one channel's reference-scheduler state: its queues and
// the scratch reused every step, so the reference's steady state is
// allocation-free too.
type refScratch struct {
	queue  []*Request // queued reads, in admission order
	wqueue []*Request // buffered writes, in admission order

	hit     []bool     // per bank: some queued request hits the open row
	pre     []bool     // per bank: a conflicting PRE already planned
	drain   []*Request // scheduling pool when writes join the reads
	refresh []bool     // per rank: refresh due

	// PAR-BS batch state, kept apart from the channel's dense slices so the
	// differential test checks batch marking and thread ranking too.
	slot  map[refSlot]int // marked requests per (core, rank, bank)
	load  map[int]int     // marked requests per core
	rank  map[int]int     // thread rank per core; absent cores rank 0
	cores []int           // cores of the batch, sorted by (load, id)
}

// refSlot keys the reference's PAR-BS per-(core, bank) marking cap.
type refSlot struct{ core, rank, bank int }

// refScheduler steps a System's channels with stepReference.
type refScheduler struct {
	sys     *System
	scratch []refScratch // per channel
}

func newRefScheduler(s *System) *refScheduler {
	nbanks := s.cfg.DRAM.RanksPerChannel * s.cfg.DRAM.BanksPerRank
	r := &refScheduler{sys: s, scratch: make([]refScratch, len(s.chans))}
	for i := range r.scratch {
		r.scratch[i] = refScratch{
			hit:     make([]bool, nbanks),
			pre:     make([]bool, nbanks),
			refresh: make([]bool, s.cfg.DRAM.RanksPerChannel),
			slot:    map[refSlot]int{},
			load:    map[int]int{},
			rank:    map[int]int{},
		}
	}
	return r
}

// Enqueue is System.Enqueue that also appends an accepted request to the
// reference's own queue for it.
func (r *refScheduler) Enqueue(req *Request, now clock.Time) bool {
	if !r.sys.Enqueue(req, now) {
		return false
	}
	sc := &r.scratch[req.Addr.Channel]
	if req.Write {
		sc.wqueue = append(sc.wqueue, req)
	} else {
		sc.queue = append(sc.queue, req)
	}
	return true
}

// Advance is System.Advance with the reference step in place of the indexed
// one.
func (r *refScheduler) Advance(now clock.Time) {
	s := r.sys
	next := clock.Never
	for _, ch := range s.chans {
		for ch.wake <= now {
			ch.wake = ch.stepReference(ch.wake, &r.scratch[ch.idx])
			s.steps++
		}
		next = clock.Min(next, ch.wake)
	}
	s.nextWake = next
}

// stepReference is the naive step: full candidate derivation by scanning.
func (ch *channel) stepReference(now clock.Time, sc *refScratch) clock.Time {
	s := ch.sys
	p := s.cfg.DRAM
	best := candidate{t: clock.Never}
	earliest := clock.Never

	consider := func(c candidate) {
		earliest = clock.Min(earliest, c.t)
		if c.t > now {
			return
		}
		if best.op == opNone || c.class < best.class || (c.class == best.class && c.seq < best.seq) {
			best = c
		}
	}

	refreshPending := sc.refresh
	for i := range refreshPending {
		refreshPending[i] = false
	}
	for rk := 0; rk < p.RanksPerChannel; rk++ {
		if due := ch.refreshDue[rk]; now < due {
			earliest = clock.Min(earliest, due)
			continue
		}
		refreshPending[rk] = true
		rankID := dram.RankID{Channel: ch.idx, Rank: rk}
		allClosed := true
		for ba := 0; ba < p.BanksPerRank; ba++ {
			if ch.bank(rk, ba).open >= 0 {
				allClosed = false
				id := ch.bankID(rk, ba)
				consider(candidate{t: s.chk.EarliestPRE(id, now), class: 0, op: opPRE, rank: rk, bank: ba})
			}
		}
		if allClosed {
			t := s.chk.EarliestREF(rankID, now)
			consider(candidate{t: t, class: 0, op: opREF, rank: rk})
		}
	}

	for rk := 0; rk < p.RanksPerChannel; rk++ {
		for ba := 0; ba < p.BanksPerRank; ba++ {
			id := ch.bankID(rk, ba)
			b := ch.bank(rk, ba)
			hasARR := s.rcd.HasPendingARR(id)
			if !hasARR && len(b.mit) == 0 {
				continue
			}
			if b.open >= 0 {
				// Close the bank once no queued request still hits the open
				// row, so in-flight accesses are not starved.
				if !sc.queuedHit(id, b.open) {
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

	ch.scheduleDemandRef(now, refreshPending, sc, consider)

	if best.op != opNone {
		if best.op == opColumn {
			sc.remove(best.req) // before exec releases the request
		}
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

// remove splices a request whose column command issued out of its queue.
func (sc *refScratch) remove(q *Request) {
	queue := &sc.queue
	if q.Write {
		queue = &sc.wqueue
	}
	i := slices.Index(*queue, q)
	*queue = slices.Delete(*queue, i, i+1)
}

// queuedHit reports whether any queued request targets the bank's open row.
func (sc *refScratch) queuedHit(id dram.BankID, row int) bool {
	for _, q := range sc.queue {
		if q.Addr.Bank == id.Bank && q.Addr.Rank == id.Rank && q.Addr.Row == row {
			return true
		}
	}
	for _, q := range sc.wqueue {
		if q.Addr.Bank == id.Bank && q.Addr.Rank == id.Rank && q.Addr.Row == row {
			return true
		}
	}
	return false
}

// drainSet decides which queues feed the scheduler this step: reads always;
// buffered writes only during a drain burst (entered at the high watermark
// or an idle read queue, left at the low watermark).
func (ch *channel) drainSet(sc *refScratch) []*Request {
	cfg := ch.sys.cfg
	switch {
	case ch.draining && len(sc.wqueue) <= cfg.WriteLow:
		ch.draining = false
	case !ch.draining && (len(sc.wqueue) >= cfg.WriteHigh || (len(sc.queue) == 0 && len(sc.wqueue) > 0)):
		ch.draining = true
	}
	if !ch.draining {
		// Outside a burst, writes whose row is already open still complete
		// (they cost one cheap column command and would otherwise strand a
		// bank that was activated for them during the previous burst).
		out := sc.queue
		copied := false
		for _, q := range sc.wqueue {
			if ch.bank(q.Addr.Rank, q.Addr.Bank).open == q.Addr.Row {
				if !copied {
					out = append(sc.drain[:0], sc.queue...)
					copied = true
				}
				out = append(out, q)
			}
		}
		if copied {
			sc.drain = out[:0] // keep the grown capacity for reuse
		}
		return out
	}
	out := append(sc.drain[:0], sc.queue...)
	out = append(out, sc.wqueue...)
	sc.drain = out[:0]
	return out
}

// scheduleDemandRef emits candidates for queued requests in scheduler order,
// one candidate per pool request.
func (ch *channel) scheduleDemandRef(now clock.Time, refreshPending []bool, sc *refScratch, consider func(candidate)) {
	s := ch.sys
	ch.refreshBatchRef(sc)
	pool := ch.drainSet(sc)
	// A bank's conflicting PRE is only allowed when no queued request hits
	// the open row; precompute per-bank hit presence.
	banksPerRank := s.cfg.DRAM.BanksPerRank
	hits, prePlanned := sc.hit, sc.pre
	for i := range hits {
		hits[i] = false
		prePlanned[i] = false
	}
	for _, q := range pool {
		b := ch.bank(q.Addr.Rank, q.Addr.Bank)
		if b.open == q.Addr.Row {
			hits[q.Addr.Rank*banksPerRank+q.Addr.Bank] = true
		}
	}
	for i, q := range pool {
		if refreshPending[q.Addr.Rank] {
			continue // drain the rank for refresh
		}
		id := q.Addr.BankID()
		b := ch.bank(q.Addr.Rank, q.Addr.Bank)
		// Column accesses to the open row always proceed (they drain the
		// row so mitigation can precharge); opening a new row waits until
		// the bank's mitigation debt is paid.
		if b.open != q.Addr.Row && (s.rcd.HasPendingARR(id) || len(b.mit) > 0) {
			continue
		}
		key := q.Addr.Rank*banksPerRank + q.Addr.Bank
		switch {
		case b.open == q.Addr.Row:
			t := s.chk.EarliestColumn(id, now)
			consider(candidate{t: t, class: 3, seq: ch.demandSeq(sc, q, true, i), op: opColumn, req: q})
		case b.open < 0:
			t := s.chk.EarliestACT(id, now)
			ch.countNack(q, id, now)
			consider(candidate{t: t, class: 3, seq: ch.demandSeq(sc, q, false, i), op: opACT, req: q})
		default:
			if hits[key] || prePlanned[key] {
				continue // other requests still hit the open row
			}
			prePlanned[key] = true
			t := s.chk.EarliestPRE(id, now)
			q.neededPRE = true
			consider(candidate{t: t, class: 3, seq: ch.demandSeq(sc, q, false, i), op: opPRE, rank: q.Addr.Rank, bank: q.Addr.Bank})
		}
	}
}

// demandSeq is the reference tie-break: the same priority fields as
// demandKey but with the request's position in the freshly built pool as the
// low-order arrival component.
func (ch *channel) demandSeq(sc *refScratch, q *Request, hit bool, queueIdx int) int64 {
	var seq int64
	// During a drain burst, buffered writes count as first-class work so a
	// steady read stream cannot starve the write buffer into backpressure.
	if !q.marked && !(ch.draining && q.Write) {
		seq |= 1 << 50
	}
	if !hit {
		seq |= 1 << 45
	}
	seq |= int64(sc.rank[q.Core]) << 25
	return seq | int64(queueIdx)
}

// refreshBatchRef is the naive batch formation: it re-scans the queue for
// leftover marks instead of trusting markedLeft (which it still maintains,
// since exec's unindex decrements it), counts marks in maps, and ranks the
// batch's cores with a sort on (load, core id).
func (ch *channel) refreshBatchRef(sc *refScratch) {
	for _, q := range sc.queue {
		if q.marked {
			return
		}
	}
	if len(sc.queue) == 0 {
		return
	}
	clear(sc.slot)
	clear(sc.load)
	for _, q := range sc.queue {
		k := refSlot{q.Core, q.Addr.Rank, q.Addr.Bank}
		if sc.slot[k] < ch.sys.cfg.BatchCap {
			sc.slot[k]++
			q.marked = true
			ch.markedLeft++
			sc.load[q.Core]++
		}
	}
	cores := sc.cores[:0]
	for c := range sc.load { // sorted below
		cores = append(cores, c)
	}
	slices.SortFunc(cores, func(a, b int) int {
		if la, lb := sc.load[a], sc.load[b]; la != lb {
			return cmp.Compare(la, lb)
		}
		return cmp.Compare(a, b)
	})
	sc.cores = cores
	clear(sc.rank)
	for r, c := range cores {
		sc.rank[c] = r
	}
}
