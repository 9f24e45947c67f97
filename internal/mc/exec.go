// Command execution. The scheduler funnels its selected candidate through
// exec, which is also where every scheduler index is maintained: command
// effects are the only events that change row state, timing state, or
// defense debt, so the hooks here keep the queue.go indexes exact, and
// dirty the demand-set memo of every rank whose timing a command moved, no
// matter which selection path produced the candidate. exec is also the trace point:
// the differential test compares the full issued-command stream against the
// reference scheduler through SetTrace.
package mc

import (
	"fmt"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
)

// TraceEvent describes one issued DRAM command. Row, Req, and Write are
// meaningful only for opACT/opColumn events (demand commands); bank-level
// commands carry their rank/bank operands and zero elsewhere.
type TraceEvent struct {
	T       clock.Time
	Channel int
	Op      int8 // the op enum: 1 PRE, 2 REF, 3 ARR, 4 Mit, 5 ACT, 6 Column
	Rank    int
	Bank    int
	Row     int
	Req     int64
	Write   bool
}

// exec dispatches a selected candidate at its issue time.
func (ch *channel) exec(c candidate) {
	if tr := ch.sys.trace; tr != nil {
		ev := TraceEvent{T: c.t, Channel: ch.idx, Op: int8(c.op), Rank: c.rank, Bank: c.bank}
		if c.req != nil {
			ev.Rank = c.req.Addr.Rank
			ev.Bank = c.req.Addr.Bank
			ev.Row = c.req.Addr.Row
			ev.Req = c.req.ID
			ev.Write = c.req.Write
		}
		tr(ev)
	}
	switch c.op {
	case opPRE:
		ch.doPRE(c.rank, c.bank, c.t)
	case opREF:
		ch.doREF(c.rank, c.t)
	case opARR:
		ch.doARR(c.rank, c.bank, c.t)
	case opMit:
		ch.doMit(c.rank, c.bank, c.t)
	case opACT:
		ch.doACT(c.req, c.t)
	case opColumn:
		ch.doColumn(c.req, c.t)
	}
}

func (ch *channel) doPRE(rk, ba int, t clock.Time) {
	s := ch.sys
	id := ch.bankID(rk, ba)
	must(s.chk.RecordPRE(id, t))
	s.dev.Bank(id).Precharge()
	ch.onRowClose(rk, ba)
	s.cnt.Precharges++
}

func (ch *channel) doREF(rk int, t clock.Time) {
	s := ch.sys
	rankID := dram.RankID{Channel: ch.idx, Rank: rk}
	must(s.chk.RecordREF(rankID, t))
	for ba := 0; ba < s.cfg.DRAM.BanksPerRank; ba++ {
		must(s.dev.Bank(ch.bankID(rk, ba)).AutoRefresh(t))
	}
	s.rcd.ObserveRefresh(rankID, t)
	ch.dirty(rk)
	s.cnt.Refreshes++
	if s.probes != nil {
		s.probes.Refresh(ch.idx, t)
	}
	ch.refreshDue[rk] += s.cfg.DRAM.TREFI
}

func (ch *channel) doARR(rk, ba int, t clock.Time) {
	s := ch.sys
	id := ch.bankID(rk, ba)
	row, ok := s.rcd.TakeARR(id)
	ch.updateAttn(id)
	if !ok {
		return
	}
	must(s.chk.RecordARR(id, t))
	ch.dirty(rk)
	n, err := s.dev.Bank(id).AdjacentRowRefresh(row, t)
	must(err)
	s.cnt.ARRs++
	s.cnt.DefenseACTs += int64(n)
	if s.probes != nil {
		s.probes.ARR(id.Flat(&s.cfg.DRAM), t)
	}
}

func (ch *channel) doMit(rk, ba int, t clock.Time) {
	s := ch.sys
	id := ch.bankID(rk, ba)
	b := ch.bank(rk, ba)
	if len(b.mit) == 0 {
		return
	}
	op := b.mit[0]
	b.mit = b.mit[1:]
	ch.updateAttn(id)
	must(s.chk.RecordACT(id, t))
	preAt := s.chk.EarliestPRE(id, t)
	must(s.chk.RecordPRE(id, preAt))
	ch.dirty(rk)
	if op.deviceRefresh {
		bank := s.dev.Bank(id)
		must(bank.Activate(op.row, t))
		bank.Precharge()
	}
	s.cnt.DefenseACTs++
}

func (ch *channel) doACT(q *Request, t clock.Time) {
	s := ch.sys
	id := q.Addr.BankID()
	must(s.chk.RecordACT(id, t))
	must(s.dev.Bank(id).Activate(q.Addr.Row, t))
	ch.onRowOpen(q.Addr.Rank, q.Addr.Bank, q.Addr.Row)
	q.neededACT = true
	s.cnt.NormalACTs++
	if s.probes != nil {
		s.probes.ACT(id.Flat(&s.cfg.DRAM), t)
	}
	ch.applyAction(id, q.Core, s.rcd.ObserveACT(id, q.Addr.Row, t), t)
	ch.updateAttn(id)
}

// applyAction queues the mitigation work a defense requested, attributing
// any detection to the core whose activation caused it.
func (ch *channel) applyAction(id dram.BankID, core int, a defense.Action, t clock.Time) {
	s := ch.sys
	b := ch.bank(id.Rank, id.Bank)
	for _, v := range a.LogicalVictims {
		if v >= 0 && v < s.cfg.DRAM.RowsPerBank {
			//twicelint:allocok mitigation ops are rare relative to ACTs; backing array amortizes
			b.mit = append(b.mit, mitOp{row: v, deviceRefresh: true})
		}
	}
	for i := 0; i < a.ExtraAccesses; i++ {
		//twicelint:allocok mitigation ops are rare relative to ACTs; backing array amortizes
		b.mit = append(b.mit, mitOp{deviceRefresh: false})
	}
	if a.Detected {
		s.cnt.Detections++
		if s.probes != nil {
			s.probes.Detection(id.Flat(&s.cfg.DRAM), core, t)
		}
		s.detectionsByCore[core]++
	}
}

func (ch *channel) doColumn(q *Request, t clock.Time) {
	s := ch.sys
	id := q.Addr.BankID()
	var done clock.Time
	var err error
	if q.Write {
		done, err = s.chk.RecordWrite(id, t)
		s.cnt.Writes++
	} else {
		done, err = s.chk.RecordRead(id, t)
		s.cnt.Reads++
	}
	must(err)
	ch.dirtyColumns()
	switch {
	case !q.neededACT:
		s.cnt.RowHits++
	case q.neededPRE:
		s.cnt.RowConflicts++
	default:
		s.cnt.RowMisses++
	}
	ch.unindex(q) // while the row is still open: the hit counter must see it
	b := ch.bank(q.Addr.Rank, q.Addr.Bank)
	b.hits++
	closeNow := s.cfg.PagePolicy == ClosedPage ||
		(s.cfg.PagePolicy == MinimalistOpen && b.hits >= s.cfg.MaxRowHits)
	if closeNow {
		preAt := s.chk.EarliestPRE(id, t)
		must(s.chk.RecordPRE(id, preAt))
		s.dev.Bank(id).Precharge()
		ch.onRowClose(q.Addr.Rank, q.Addr.Bank)
		s.cnt.Precharges++
	}
	completion := done
	if q.Write {
		completion = t // posted write: the issuer does not wait
	}
	s.cnt.AddLatency(completion - q.Arrival)
	if s.probes != nil {
		s.probes.Dequeue(ch.idx, ch.nreads+ch.nwrites, completion-q.Arrival, completion)
	}
	if q.Done != nil {
		q.Done(completion)
	}
	if s.release != nil {
		s.release(q) // q must not be touched past this point
	}
}

// countNack records one nacked command attempt per request per ARR window.
func (ch *channel) countNack(q *Request, id dram.BankID, now clock.Time) {
	s := ch.sys
	blocked := s.chk.RankBlockedUntil(id.RankID())
	if blocked > now && q.nackWindow != blocked {
		q.nackWindow = blocked
		s.cnt.Nacks++
		if s.probes != nil {
			s.probes.Nack(ch.idx, now)
		}
	}
}

// must converts internal protocol violations into panics: they indicate a
// scheduler bug, never a caller error.
func must(err error) {
	if err != nil {
		//twicelint:allocok panic path: the simulation is already dead
		panic(fmt.Sprintf("mc: internal protocol violation: %v", err))
	}
}
