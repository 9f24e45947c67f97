package dram

import (
	"fmt"
	"math/rand"

	"repro/internal/clock"
)

// Flip records a simulated row-hammer bit flip: a physical row whose
// disturbance counter exceeded Nth before the row was refreshed.
type Flip struct {
	Bank    BankID
	PhysRow int
	Logical int // -1 if the physical row holds no logical row
	Time    clock.Time
	Disturb int // disturbance count at the moment of the flip
}

// BankStats aggregates per-bank activity counters.
type BankStats struct {
	ACTs          int64 // row activations from normal traffic
	VictimACTs    int64 // activations performed to refresh potential victims
	AutoRefreshes int64 // auto-refresh commands processed
	RowsRefreshed int64 // rows covered by auto-refresh
	Flips         int64 // row-hammer flips observed
}

// Bank models a single DRAM bank: its physical rows (including spares), the
// remap table burned in at test time, the rolling auto-refresh pointer, and
// per-row disturbance state.
type Bank struct {
	id    BankID      //twicelint:keep identity, fixed at construction
	p     *Params     //twicelint:keep device parameters, fixed at construction
	remap *RemapTable //twicelint:keep fuse data survives power cycles; RemapTable has no reset

	// A row's disturbance count is the number of neighbour ACTs since the
	// row's last refresh or own activation. A count rises only by one, in
	// hammer, so a row records its flip on the increment that takes it to
	// NTh+1 and never again until a refresh zeroes it.
	//
	// Counts are stored per 64-row group (the rows of one dirty word), and
	// only for the groups a run disturbs: slot[g] is 0 while group g has
	// never been disturbed (every count in it is zero), and otherwise the
	// 1-based number of its 64 counts in counts, so row phys counts at
	// counts[(slot[phys>>6]-1)<<6 | phys&63]. hammer appends a group the
	// first time it raises one of its counts. A group keeps its slot for the
	// bank's lifetime, Reset included, so a recycled bank allocates nothing
	// for the groups it disturbed before; the slab never grows past one
	// slot per group, the dense array's size.
	slot   []int32 //twicelint:keep group slots survive Reset; their counts are zeroed through the dirty bitmap
	counts []int32
	// dirty holds one bit per physical row (bit phys&63 of word phys>>6),
	// set whenever hammer raises that row's count. A clear bit means the
	// row's count is zero, so the refresh sweep and Reset zero only the
	// 64-row groups whose word has a bit set: an attack disturbs a handful
	// of rows, and zeroing the whole range would stream every row of every
	// bank through the cache.
	dirty []uint64
	// hwm is the highest disturbance count any row of the bank has reached —
	// the per-bank high-water mark the telemetry layer samples. Maintained
	// inline in hammer (one compare per disturbed neighbour).
	hwm int32

	refreshPtr int // next physical row to be auto-refreshed
	openRow    int // currently open logical row, or -1

	flips []Flip
	stats BankStats
}

// NewBank constructs a bank with the given remap table. A nil remap table
// yields an identity mapping.
func NewBank(id BankID, p *Params, remap *RemapTable) *Bank {
	if remap == nil {
		remap = NewRemapTable(p.RowsPerBank, p.SpareRowsPerBank)
	}
	groups := (remap.PhysicalRows() + 63) / 64
	b := &Bank{
		id:    id,
		p:     p,
		remap: remap,
		slot:  make([]int32, groups),
		dirty: make([]uint64, groups),
	}
	b.Reset()
	return b
}

// ID returns the bank coordinate.
//
//twicelint:keep called by internal/sim tests
func (b *Bank) ID() BankID { return b.id }

// Stats returns a copy of the bank's activity counters.
//
//twicelint:keep called by internal/mc tests
func (b *Bank) Stats() BankStats { return b.stats }

// Flips returns the recorded row-hammer flips.
func (b *Bank) Flips() []Flip { return b.flips }

// Activate opens the given logical row, disturbing its physical neighbours.
// It is the caller's (memory controller's) job to respect timing; the device
// model only tracks reliability state.
//
//twicelint:hotpath per-ACT device kernel; every simulated activation runs it
func (b *Bank) Activate(logicalRow int, now clock.Time) error {
	if logicalRow < 0 || logicalRow >= b.p.RowsPerBank {
		//twicelint:allocok cold error path: protocol violation, not steady state
		return fmt.Errorf("dram: activate out-of-range row %d in %v", logicalRow, b.id)
	}
	if b.openRow >= 0 {
		//twicelint:allocok cold error path: protocol violation, not steady state
		return fmt.Errorf("dram: activate row %d while row %d open in %v", logicalRow, b.openRow, b.id)
	}
	b.openRow = logicalRow
	b.stats.ACTs++
	b.hammer(b.remap.Physical(logicalRow), now)
	return nil
}

// hammer applies the disturbance of one activation of the given physical row
// to its neighbours and rejuvenates the activated row itself (an activation
// fully restores the row's own charge). This is the innermost operation of
// every experiment, so the neighbour range is iterated inline, in ascending
// order, with zero allocation.
//
//twicelint:hotpath disturbance accounting runs on every ACT and ARR
func (b *Bank) hammer(phys int, now clock.Time) {
	if s := b.slot[phys>>6]; s != 0 { // an unstored group counts zero already
		b.counts[int(s-1)<<6|phys&63] = 0
	}
	lo := phys - b.p.BlastRadius
	if lo < 0 {
		lo = 0
	}
	hi := phys + b.p.BlastRadius
	if last := b.remap.PhysicalRows() - 1; hi > last {
		hi = last
	}
	for n := lo; n <= hi; n++ {
		if n == phys {
			continue
		}
		s := b.slot[n>>6]
		if s == 0 {
			s = b.addGroup(n >> 6)
		}
		c := &b.counts[int(s-1)<<6|n&63]
		*c++
		b.dirty[n>>6] |= 1 << (n & 63)
		if *c > b.hwm {
			b.hwm = *c
		}
		if int(*c) == b.p.NTh+1 {
			b.stats.Flips++
			//twicelint:allocok flip records are rare events (each physical row flips at most once)
			b.flips = append(b.flips, Flip{
				Bank:    b.id,
				PhysRow: n,
				Logical: b.remap.Logical(n),
				Time:    now,
				Disturb: int(*c),
			})
		}
	}
}

// addGroup stores 64 zeroed counts for group g at the end of the slab and
// returns the group's new slot. A full slab grows by a quarter plus four
// slots, about as append grows a large slice, so a run that stores most
// groups holds little more than it uses; its capacity stops at one slot per
// group, the size of a dense array.
func (b *Bank) addGroup(g int) int32 {
	if len(b.counts) == cap(b.counts) {
		slots := len(b.counts) >> 6
		//twicelint:allocok at most 23 growths per bank lifetime at the default geometry: slots survive Reset, so a recycled bank stops growing
		grown := make([]int32, len(b.counts), min(slots+slots/4+4, len(b.slot))<<6)
		copy(grown, b.counts)
		b.counts = grown
	}
	// The slab never shrinks, so the 64 counts past its length have never
	// been written since make zeroed them.
	b.counts = b.counts[:len(b.counts)+64]
	s := int32(len(b.counts) >> 6) //twicelint:checked at most len(b.slot); 2^31 groups would need a 16 GiB dirty bitmap
	b.slot[g] = s
	return s
}

// Precharge closes the open row. Precharging an already-idle bank is legal
// (PREA behaviour) and is a no-op.
func (b *Bank) Precharge() {
	b.openRow = -1
}

// AutoRefresh processes one auto-refresh command: the next RowsPerRefresh
// physical rows (in rolling order) have their charge restored, clearing
// their disturbance counters. The caller must have precharged the bank.
//
//twicelint:hotpath runs once per bank every tREFI across the whole run
func (b *Bank) AutoRefresh(now clock.Time) error {
	if b.openRow >= 0 {
		//twicelint:allocok cold error path: protocol violation, not steady state
		return fmt.Errorf("dram: auto-refresh with row %d open in %v", b.openRow, b.id)
	}
	n := b.remap.PhysicalRows()
	count := b.p.RowsPerRefresh() // at most n: the window holds at least one tick
	lo, hi := b.refreshPtr, b.refreshPtr+count
	if hi > n {
		b.refreshRows(lo, n)
		lo, hi = 0, hi-n
	}
	b.refreshRows(lo, hi)
	b.refreshPtr = hi % n
	b.stats.AutoRefreshes++
	b.stats.RowsRefreshed += int64(count)
	_ = now
	return nil
}

// refreshRows zeroes the disturbance counts of the physical rows [lo, hi)
// and clears their dirty bits, one bitmap word at a time. A word's rows are
// zeroed with one clear when any of them is dirty (a dirty row's group is
// stored) and skipped otherwise: the clean rows among them already count
// zero.
func (b *Bank) refreshRows(lo, hi int) {
	for lo < hi {
		w := lo >> 6
		end := min(hi, (w+1)<<6)
		first, last := lo&63, (end-1)&63
		mask := ^uint64(0) << first & (^uint64(0) >> (63 - last))
		if b.dirty[w]&mask != 0 {
			base := int(b.slot[w]-1) << 6
			clear(b.counts[base+first : base+last+1])
			b.dirty[w] &^= mask
		}
		lo = end
	}
}

// AdjacentRowRefresh implements the ARR command: the device resolves the
// aggressor's physical location through its remap table and refreshes the
// physically adjacent rows. It returns the number of rows refreshed (up to
// 2×BlastRadius), each of which costs the device one internal ACT/PRE pair.
func (b *Bank) AdjacentRowRefresh(aggressorLogical int, now clock.Time) (int, error) {
	if aggressorLogical < 0 || aggressorLogical >= b.p.RowsPerBank {
		//twicelint:allocok cold error path: protocol violation, not steady state
		return 0, fmt.Errorf("dram: ARR for out-of-range row %d in %v", aggressorLogical, b.id)
	}
	if b.openRow >= 0 {
		//twicelint:allocok cold error path: protocol violation, not steady state
		return 0, fmt.Errorf("dram: ARR with row %d open in %v", b.openRow, b.id)
	}
	phys := b.remap.Physical(aggressorLogical)
	lo := phys - b.p.BlastRadius
	if lo < 0 {
		lo = 0
	}
	hi := phys + b.p.BlastRadius
	if last := b.remap.PhysicalRows() - 1; hi > last {
		hi = last
	}
	count := 0
	for n := lo; n <= hi; n++ {
		if n == phys {
			continue
		}
		// Refreshing a victim is an internal activation: it restores the
		// victim's charge but also disturbs the victim's own neighbours.
		b.hammer(n, now)
		count++
	}
	b.stats.VictimACTs += int64(count)
	return count, nil
}

// RefreshLogicalNeighbors models what a remapping-oblivious controller would
// do: refresh the rows at logical indices aggressor±1..radius. If the
// aggressor (or a neighbour) is remapped, the refreshed physical rows are not
// the true victims. Returns the number of rows refreshed. Used to demonstrate
// why ARR must live in the device.
func (b *Bank) RefreshLogicalNeighbors(aggressorLogical int, now clock.Time) (int, error) {
	if b.openRow >= 0 {
		return 0, fmt.Errorf("dram: refresh with row %d open in %v", b.openRow, b.id)
	}
	count := 0
	for d := -b.p.BlastRadius; d <= b.p.BlastRadius; d++ {
		if d == 0 {
			continue
		}
		l := aggressorLogical + d
		if l < 0 || l >= b.p.RowsPerBank {
			continue
		}
		b.hammer(b.remap.Physical(l), now)
		count++
	}
	b.stats.VictimACTs += int64(count)
	return count, nil
}

// Disturbance returns the disturbance count of a physical row (test hook).
func (b *Bank) Disturbance(phys int) int {
	s := b.slot[phys>>6]
	if s == 0 {
		return 0
	}
	return int(b.counts[int(s-1)<<6|phys&63])
}

// DisturbHighWater returns the highest disturbance count any row of the bank
// has ever reached (refreshes clear counters but not the high-water mark).
func (b *Bank) DisturbHighWater() int { return int(b.hwm) }

// Reset restores the bank to its just-constructed state while keeping its
// storage and remap table: disturbance counters and dirty bits cleared (only
// the 64-row groups the bitmap marks are zeroed, so a reset costs what the
// last run disturbed; every group keeps its slot), the refresh pointer
// rewound, recorded flips dropped (the backing array is reused), and the
// activity counters zeroed. A stored group of zeros reads like an unstored
// one, so only the storage differs from a fresh bank. The remap table is
// fuse data — it survives, which is what makes a reset bank byte-identical
// to a fresh bank built from the same generation sequence.
func (b *Bank) Reset() {
	// Every dirty bit is set together with a count of at least 1, so a
	// high-water mark of 0 means a clear bitmap and nothing to walk. A
	// machine resets each bank twice while it is built (NewBank, then the
	// machine's first Reuse), and walking every bitmap both times cost
	// ~0.6 ms of a ~33 ms construction on a 2-vCPU host.
	if b.hwm > 0 {
		for w, word := range b.dirty {
			if word != 0 {
				base := int(b.slot[w]-1) << 6
				clear(b.counts[base : base+64])
				b.dirty[w] = 0
			}
		}
	}
	b.refreshPtr = 0
	b.openRow = -1
	b.flips = b.flips[:0]
	b.stats = BankStats{}
	b.hwm = 0
}

// Device models a full multi-channel DRAM population: one Bank per
// (channel, rank, bank) coordinate, each with its own remap table.
type Device struct {
	p     Params //twicelint:keep device parameters, fixed at construction
	banks []*Bank
}

// NewDevice builds the device population. If rng is non-nil, each bank gets
// a generated remap table (sampled at p.SCFRate); with a nil rng all banks
// use identity mappings.
func NewDevice(p Params, rng *rand.Rand) (*Device, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	d := &Device{p: p, banks: make([]*Bank, p.TotalBanks())}
	for ch := 0; ch < p.Channels; ch++ {
		for rk := 0; rk < p.RanksPerChannel; rk++ {
			for ba := 0; ba < p.BanksPerRank; ba++ {
				id := BankID{ch, rk, ba}
				var remap *RemapTable
				if rng != nil {
					remap = GenerateRemapTable(p, rng)
				}
				d.banks[id.Flat(&p)] = NewBank(id, &d.p, remap)
			}
		}
	}
	return d, nil
}

// Bank returns the bank at the given coordinate.
func (d *Device) Bank(id BankID) *Bank { return d.banks[id.Flat(&d.p)] }

// Reset restores every bank to its just-constructed state (see Bank.Reset),
// reusing all storage — the machine-recycling path of the experiment grids.
func (d *Device) Reset() {
	for _, b := range d.banks {
		b.Reset()
	}
}

// Banks returns all banks in flat order.
func (d *Device) Banks() []*Bank { return d.banks }
