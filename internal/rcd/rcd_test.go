package rcd

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
)

func params() dram.Params {
	p := dram.DDR4_2400()
	p.Channels, p.RanksPerChannel, p.BanksPerRank = 1, 1, 2
	p.BankGroups = 1
	p.RowsPerBank = 256
	return p
}

// scripted flags a fixed row as an aggressor on every call.
type scripted struct {
	arr     []int
	victims []int
	ticks   int
}

func (s *scripted) Name() string { return "scripted" }
func (s *scripted) OnActivate(_ dram.BankID, _ int, _ clock.Time) defense.Action {
	return defense.Action{ARRAggressors: s.arr, LogicalVictims: s.victims, Detected: len(s.arr) > 0}
}
func (s *scripted) OnRefreshTick(dram.BankID, clock.Time) { s.ticks++ }
func (s *scripted) Reset()                                {}

func TestARRQueuedPerBank(t *testing.T) {
	p := params()
	r := New(p, &scripted{arr: []int{42}})
	b0 := dram.BankID{Bank: 0}
	b1 := dram.BankID{Bank: 1}

	a := r.ObserveACT(b0, 42, 0)
	if len(a.ARRAggressors) != 0 {
		t.Error("ARR aggressors must be absorbed by the RCD, not returned")
	}
	if !a.Detected {
		t.Error("detection flag lost")
	}
	if !r.HasPendingARR(b0) {
		t.Error("no pending ARR on bank 0")
	}
	if r.HasPendingARR(b1) {
		t.Error("pending ARR leaked to bank 1")
	}

	row, ok := r.TakeARR(b0)
	if !ok || row != 42 {
		t.Errorf("TakeARR = %d,%v", row, ok)
	}
	if r.HasPendingARR(b0) {
		t.Error("ARR still pending after take")
	}
	if _, ok := r.TakeARR(b0); ok {
		t.Error("second take succeeded")
	}
}

func TestARRFIFOOrder(t *testing.T) {
	p := params()
	def := &scripted{arr: []int{1}}
	r := New(p, def)
	b := dram.BankID{}
	r.ObserveACT(b, 1, 0)
	def.arr = []int{2}
	r.ObserveACT(b, 2, 0)
	first, _ := r.TakeARR(b)
	second, _ := r.TakeARR(b)
	if first != 1 || second != 2 {
		t.Errorf("ARR order = %d,%d, want 1,2", first, second)
	}
}

func TestVictimActionsPassThrough(t *testing.T) {
	r := New(params(), &scripted{victims: []int{7, 9}})
	a := r.ObserveACT(dram.BankID{}, 8, 0)
	if len(a.LogicalVictims) != 2 {
		t.Errorf("victims = %v", a.LogicalVictims)
	}
}

func TestObserveRefreshTicksEveryBank(t *testing.T) {
	def := &scripted{}
	r := New(params(), def)
	r.ObserveRefresh(dram.RankID{}, 0)
	if def.ticks != 2 {
		t.Errorf("refresh ticks = %d, want one per bank (2)", def.ticks)
	}
}

func TestDefenseAccessor(t *testing.T) {
	def := &scripted{}
	r := New(params(), def)
	if r.Defense() != defense.Defense(def) {
		t.Error("Defense() returned wrong instance")
	}
}
