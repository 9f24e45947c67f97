package mc

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/clock"
	"repro/internal/dram"
)

// The shadow check proves the scheduler's reused answers exact, not just
// harmless. A stale-early set time only adds an idle step, and an idle step
// changes the output only in the write-drain toggle state of ROADMAP item 8,
// so the differential tests alone can pass with a memo that is wrong. The
// shadow instead re-derives every answer the memo would reuse, after every
// step and every admission, and fails on the first difference. It checks
// the facts the step trusts without re-deriving them the same way: the
// channel's read and write counts against its buckets, and each attention
// bit against the RCD and the bank's mitigation debt.

// shadow steps the indexed scheduler the way System.Advance does and checks
// its reused answers as it goes: every clean demand set whose stored time
// lies past the channel's last step is recomputed from the bank-state words
// with EarliestColumns, EarliestPRE and EarliestACTs, and every valid cached
// pick with a fresh bestHit, first conflict or bestMiss. It also counts what
// the memo saved, so a test can require that each kind of reuse ran.
type shadow struct {
	t    *testing.T
	sys  *System
	last []clock.Time // per channel: time of its latest step

	// Per channel, at the entry of the step in progress: the pick epoch and
	// the banks whose picks were valid.
	entryEpoch []uint64
	entryValid [][]bool

	setReuse  [3]int // step-rank visits that reused a clean set, by set
	pickReuse int    // demand ACTs and columns issued from a pick cached before their step
	quiet     int    // admissions that did not wake their channel
	toggles   int    // drain-burst toggles
}

func (sh *shadow) attach(t *testing.T, sys *System) {
	sh.t, sh.sys = t, sys
	n := len(sys.chans)
	sh.last = make([]clock.Time, n)
	sh.entryEpoch = make([]uint64, n)
	sh.entryValid = make([][]bool, n)
	for c, ch := range sys.chans {
		sh.entryValid[c] = make([]bool, len(ch.bankqs))
	}
}

// advance is System.Advance with a check after every step.
func (sh *shadow) advance(now clock.Time) {
	s := sh.sys
	next := clock.Never
	for _, ch := range s.chans {
		for ch.wake <= now {
			w := ch.wake
			sh.enter(ch, w)
			draining := ch.draining
			ch.wake = ch.step(w)
			s.steps++
			if ch.draining != draining {
				sh.toggles++
			}
			sh.last[ch.idx] = w
			sh.check(ch)
		}
		next = clock.Min(next, ch.wake)
	}
	s.nextWake = next
}

// enqueued checks the channel after an accepted admission, and counts it
// quiet when it left a wake time past now alone.
func (sh *shadow) enqueued(c int, wakeBefore, now clock.Time) {
	ch := sh.sys.chans[c]
	if wakeBefore > now && ch.wake == wakeBefore {
		sh.quiet++
	}
	sh.check(ch)
}

// issued counts a demand ACT or column whose request is its bank's pick,
// cached before the step and kept through it.
func (sh *shadow) issued(_ *System, ev TraceEvent) {
	if ev.Req == 0 {
		return
	}
	ch := sh.sys.chans[ev.Channel]
	i := ch.flat(ev.Rank, ev.Bank)
	bq := &ch.bankqs[i]
	if sh.entryValid[ev.Channel][i] && ch.epoch == sh.entryEpoch[ev.Channel] && bq.pick != nil && bq.pick.ID == ev.Req {
		sh.pickReuse++
	}
}

// enter records the channel's valid picks before a step at now, and counts
// the clean sets the step will reuse: those of ranks that reach
// scheduleDemand, with a non-empty mask, on a step that does not toggle the
// drain burst (a toggle dirties every set first).
func (sh *shadow) enter(ch *channel, now clock.Time) {
	sh.entryEpoch[ch.idx] = ch.epoch
	for i := range ch.bankqs {
		sh.entryValid[ch.idx][i] = ch.bankqs[i].pickEpoch == ch.epoch
	}
	if ch.drainFlips() {
		return
	}
	for rk := range ch.memo {
		busy := ch.busy[rk]
		if busy == 0 || now >= ch.refreshDue[rk] {
			continue // no demand pass, or a refresh pending
		}
		m := &ch.memo[rk]
		hit, open := ch.hit[rk], ch.open[rk]
		if hit != 0 && m.fresh(setColumn, now) {
			sh.setReuse[setColumn]++
		}
		if busy&^hit == 0 {
			continue
		}
		sched := ch.reads[rk]
		if ch.draining {
			sched = busy
		}
		sched &^= ch.attn[rk]
		if open&^hit&sched != 0 && m.fresh(setPRE, now) {
			sh.setReuse[setPRE]++
		}
		if sched&^open != 0 && m.fresh(setACT, now) {
			sh.setReuse[setACT]++
		}
	}
}

// check re-derives every answer of the channel that a later step could
// reuse, and every count and attention bit it trusts, and fails on any
// difference.
func (sh *shadow) check(ch *channel) {
	t, s := sh.t, sh.sys
	t.Helper()
	now := sh.last[ch.idx]
	reads, writes := 0, 0
	for i := range ch.bankqs {
		reads += len(ch.bankqs[i].reads)
		writes += len(ch.bankqs[i].writes)
	}
	if ch.nreads != reads || ch.nwrites != writes {
		t.Fatalf("channel %d after the step at %v: counts %d reads, %d writes; buckets hold %d, %d", ch.idx, now, ch.nreads, ch.nwrites, reads, writes)
	}
	for rk := range ch.attn {
		for ba := 0; ba < s.cfg.DRAM.BanksPerRank; ba++ {
			owes := s.rcd.HasPendingARR(ch.bankID(rk, ba)) || len(ch.bank(rk, ba).mit) > 0
			if set := ch.attn[rk]&(1<<ba) != 0; set != owes {
				t.Fatalf("channel %d rank %d bank %d after the step at %v: attention bit %v, bank owes defense work %v", ch.idx, rk, ba, now, set, owes)
			}
		}
	}
	for rk := range ch.memo {
		m := &ch.memo[rk]
		rankID := dram.RankID{Channel: ch.idx, Rank: rk}
		busy, hit, open := ch.busy[rk], ch.hit[rk], ch.open[rk]
		sched := ch.reads[rk]
		if ch.draining {
			sched = busy
		}
		sched &^= ch.attn[rk]
		if hit != 0 && m.fresh(setColumn, now) {
			if want, _ := s.chk.EarliestColumns(rankID, hit, now); want != m.t[setColumn] {
				t.Fatalf("channel %d rank %d after the step at %v: clean column set (mask %#x) holds %v, recomputed %v", ch.idx, rk, now, hit, m.t[setColumn], want)
			}
		}
		if pre := open &^ hit & sched; pre != 0 && m.fresh(setPRE, now) {
			want := clock.Never
			for w := pre; w != 0; w &= w - 1 {
				want = clock.Min(want, s.chk.EarliestPRE(ch.bankID(rk, bits.TrailingZeros64(w)), now))
			}
			if want != m.t[setPRE] {
				t.Fatalf("channel %d rank %d after the step at %v: clean conflict-PRE set (mask %#x) holds %v, recomputed %v", ch.idx, rk, now, pre, m.t[setPRE], want)
			}
		}
		if act := sched &^ open; act != 0 && m.fresh(setACT, now) {
			if want, _ := s.chk.EarliestACTs(rankID, act, now); want != m.t[setACT] {
				t.Fatalf("channel %d rank %d after the step at %v: clean ACT set (mask %#x) holds %v, recomputed %v", ch.idx, rk, now, act, m.t[setACT], want)
			}
		}
	}
	for i := range ch.bankqs {
		bq := &ch.bankqs[i]
		if bq.pickEpoch != ch.epoch {
			continue
		}
		b := &ch.banks[i]
		if len(bq.reads) == 0 && len(bq.writes) == 0 {
			t.Fatalf("channel %d bank %d: valid cached pick %v on an empty bank", ch.idx, i, bq.pick)
		}
		var want *Request
		var key int64
		switch {
		case b.open < 0:
			want, key = ch.bestMiss(bq)
		case bq.hits > 0:
			want, key = ch.bestHit(bq, b.open)
		default:
			if len(bq.reads) > 0 {
				want = bq.reads[0]
			} else {
				want = bq.writes[0]
			}
			key = ch.demandKey(want, false)
			if !want.neededPRE {
				t.Fatalf("channel %d bank %d: cached conflict pick %v is not marked neededPRE", ch.idx, i, want)
			}
		}
		if want != bq.pick || key != bq.pickKey {
			t.Fatalf("channel %d bank %d after the step at %v: cached pick %v (key %#x), recomputed %v (key %#x)", ch.idx, i, now, bq.pick, bq.pickKey, want, key)
		}
	}
}

// TestMemoShadow runs the shadow check over every differential
// configuration, the same matrix on four ranks of four banks (so a column
// command moves the bus under three other ranks' column sets), and a
// write-heavy stream into a small write buffer whose drain burst toggles
// often. The new shapes are also compared with the reference scheduler.
// Across all runs it requires reuse of each set kind, a demand command
// issued from a pick cached before its step, and an admission that did not
// wake its channel, so the check cannot pass by checking nothing.
func TestMemoShadow(t *testing.T) {
	var total shadow
	run := func(t *testing.T, cfg Config, specs []reqSpec, withRef bool) *shadow {
		sh := &shadow{}
		res := driveStream(t, cfg, &diffDefense{every: 7}, specs, false, sh)
		if withRef {
			diffCompare(t, res, runStream(t, cfg, &diffDefense{every: 7}, specs, true))
		} else {
			diffCompare(t, res, runStream(t, cfg, &diffDefense{every: 7}, specs, false))
		}
		for k := range total.setReuse {
			total.setReuse[k] += sh.setReuse[k]
		}
		total.pickReuse += sh.pickReuse
		total.quiet += sh.quiet
		return sh
	}

	p := diffParams()
	p4 := diffParams()
	p4.RanksPerChannel = 4
	for ci, c := range diffConfigs(p) {
		t.Run(c.name, func(t *testing.T) {
			run(t, c.cfg, mkStream(8000+int64(ci), 1200, p, 0.4), false)
		})
	}
	for ci, c := range diffConfigs(p4) {
		t.Run("4ranks/"+c.name, func(t *testing.T) {
			run(t, c.cfg, mkStream(8100+int64(ci), 1500, p4, 0.4), true)
		})
	}
	t.Run("write-heavy/PAR-BS", func(t *testing.T) {
		cfg := NewConfig(p)
		cfg.WriteQueueDepth, cfg.WriteHigh, cfg.WriteLow = 8, 6, 2
		specs := mkStream(8201, 1500, p, 0.3)
		rng := rand.New(rand.NewSource(8200))
		for i := range specs {
			specs[i].write = rng.Intn(10) < 7
		}
		if sh := run(t, cfg, specs, true); sh.toggles < 40 {
			t.Errorf("drain burst toggled %d times, want at least 40", sh.toggles)
		}
	})
	t.Logf("reused sets: column %d, conflict PRE %d, ACT %d; picks reused %d; quiet admissions %d",
		total.setReuse[setColumn], total.setReuse[setPRE], total.setReuse[setACT], total.pickReuse, total.quiet)
	for k, name := range []string{"column", "conflict-PRE", "ACT"} {
		if total.setReuse[k] == 0 {
			t.Errorf("no step reused a clean %s set", name)
		}
	}
	if total.pickReuse == 0 {
		t.Error("no demand command was issued from a cached pick")
	}
	if total.quiet == 0 {
		t.Error("every admission woke its channel")
	}
}
