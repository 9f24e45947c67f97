package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/clock"
)

func smallCfg() Config {
	return Config{SizeBytes: 1024, LineBytes: 64, Ways: 2, Latency: clock.Nanosecond}
}

func TestConfigValidate(t *testing.T) {
	if err := smallCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallCfg()
	bad.SizeBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero size accepted")
	}
	bad = smallCfg()
	bad.SizeBytes = 1000 // not divisible
	if err := bad.Validate(); err == nil {
		t.Error("indivisible size accepted")
	}
	bad = smallCfg()
	bad.Ways = 3 // 1024/(64*3) not integral
	if err := bad.Validate(); err == nil {
		t.Error("bad way count accepted")
	}
	bad = smallCfg()
	bad.Latency = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestHitAfterMiss(t *testing.T) {
	c, err := New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if hit, _, _ := c.Access(0x1000, false); hit {
		t.Fatal("cold cache hit")
	}
	if hit, _, _ := c.Access(0x1000, false); !hit {
		t.Fatal("warm line missed")
	}
	if hit, _, _ := c.Access(0x1004, false); !hit {
		t.Fatal("same-line offset missed")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
	if got := s.HitRate(); got != 2.0/3.0 {
		t.Errorf("hit rate = %v", got)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(smallCfg()) // 8 sets × 2 ways
	if err != nil {
		t.Fatal(err)
	}
	// Three lines mapping to set 0: strides of 8 lines = 512 B.
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a most recent
	c.Access(d, false) // evicts b (LRU)
	if !c.Contains(a) || !c.Contains(d) {
		t.Error("resident lines missing")
	}
	if c.Contains(b) {
		t.Error("LRU line not evicted")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c, err := New(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, true) // dirty
	c.Access(512, false)
	_, victim, has := c.Access(1024, false) // evicts line 0
	if !has || victim != 0 {
		t.Errorf("victim = %#x has=%v, want dirty line 0", victim, has)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestCleanEvictionSilent(t *testing.T) {
	c, _ := New(smallCfg())
	c.Access(0, false)
	c.Access(512, false)
	if _, _, has := c.Access(1024, false); has {
		t.Error("clean eviction produced a writeback")
	}
}

func TestFillSemantics(t *testing.T) {
	c, _ := New(smallCfg())
	if resident, _, has := c.Fill(0x40, false); resident || has {
		t.Errorf("fill into empty cache: resident=%v evicted=%v", resident, has)
	}
	if !c.Contains(0x40) {
		t.Error("fill did not allocate")
	}
	// Fill of a resident line with dirty=true reports it and marks it dirty.
	if resident, _, _ := c.Fill(0x40, true); !resident {
		t.Error("fill of a resident line reported it absent")
	}
	c.Access(0x40+512, false)
	_, victim, has := c.Access(0x40+1024, false)
	if !has || victim != 0x40 {
		t.Errorf("dirty fill not written back: victim=%#x has=%v", victim, has)
	}
	// Fill does not count demand hits/misses.
	if s := c.Stats(); s.Misses != 2 {
		t.Errorf("fill counted as demand access: %+v", s)
	}
}

func TestWriteAllocateProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c, err := New(smallCfg())
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Access(uint64(a), true)
			if !c.Contains(uint64(a)) {
				return false // write-allocate: the line must be resident
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyDefaultsValid(t *testing.T) {
	cfg := DefaultHierarchy(16)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewHierarchy(cfg); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Cores = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	bad = cfg
	bad.L2.LineBytes = 128
	if err := bad.Validate(); err == nil {
		t.Error("mismatched line sizes accepted")
	}
}

func testHierarchy(t *testing.T) *Hierarchy {
	t.Helper()
	cfg := HierarchyConfig{
		Cores: 2,
		L1:    Config{SizeBytes: 512, LineBytes: 64, Ways: 2, Latency: 1 * clock.Nanosecond},
		L2:    Config{SizeBytes: 2048, LineBytes: 64, Ways: 2, Latency: 3 * clock.Nanosecond},
		L3:    Config{SizeBytes: 8192, LineBytes: 64, Ways: 4, Latency: 10 * clock.Nanosecond},
	}
	h, err := NewHierarchy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHierarchyMissGoesToMemory(t *testing.T) {
	h := testHierarchy(t)
	res := h.Access(0, 0x10000, false)
	if res.HitLevel != 0 {
		t.Fatalf("cold access hit level %d", res.HitLevel)
	}
	// The next-line prefetch, a non-demand read, goes out before the demand
	// fill.
	if want := []MemAccess{{Addr: 0x10040}, {Addr: 0x10000, Demand: true}}; !slices.Equal(res.Mem, want) {
		t.Fatalf("memory accesses = %+v, want %+v", res.Mem, want)
	}
	if res.Latency != 14*clock.Nanosecond {
		t.Errorf("latency = %v, want 14ns (1+3+10)", res.Latency)
	}
}

func TestHierarchyHitLevels(t *testing.T) {
	h := testHierarchy(t)
	h.Access(0, 0x10000, false)
	if res := h.Access(0, 0x10000, false); res.HitLevel != 1 || len(res.Mem) != 0 {
		t.Errorf("second access: level=%d mem=%v", res.HitLevel, res.Mem)
	}
	// Another core finds the line only in the shared L3.
	if res := h.Access(1, 0x10000, false); res.HitLevel != 3 {
		t.Errorf("cross-core access hit level %d, want 3", res.HitLevel)
	}
}

func TestHierarchyWriteMissIsPosted(t *testing.T) {
	h := testHierarchy(t)
	res := h.Access(0, 0x2000, true)
	if want := []MemAccess{{Addr: 0x2040}, {Addr: 0x2000}}; !slices.Equal(res.Mem, want) {
		t.Errorf("write miss accesses = %+v, want the prefetch then a non-demand fill %+v", res.Mem, want)
	}
}

func TestHierarchyDirtyEvictionReachesMemory(t *testing.T) {
	h := testHierarchy(t)
	// Dirty a line, then blow through every level's capacity so the victim
	// cascades to memory as a write.
	h.Access(0, 0, true)
	sawWB := false
	for i := 1; i < 512 && !sawWB; i++ {
		res := h.Access(0, uint64(i*64), false)
		for _, m := range res.Mem {
			if m.Write && m.Addr == 0 {
				sawWB = true
			}
		}
	}
	if !sawWB {
		t.Error("dirty line never written back to memory")
	}
}

// The prefetcher runs on every L1 miss, L2 hits included, and its request
// is the non-demand read of the next line.
func TestPrefetcherIssuesNextLine(t *testing.T) {
	h := testHierarchy(t)
	res := h.Access(0, 0x4000, false)
	if !slices.Contains(res.Mem, MemAccess{Addr: 0x4040}) {
		t.Fatalf("no next-line prefetch in %+v", res.Mem)
	}
	// The prefetched line now hits in L2, and that hit prefetches the line
	// after it.
	res = h.Access(0, 0x4040, false)
	if res.HitLevel != 2 {
		t.Errorf("prefetched line hit level %d, want 2", res.HitLevel)
	}
	if want := []MemAccess{{Addr: 0x4080}}; !slices.Equal(res.Mem, want) {
		t.Errorf("L2 hit sent %+v, want the prefetch %+v", res.Mem, want)
	}
}

func TestPrefetcherSkipsResidentLines(t *testing.T) {
	h := testHierarchy(t)
	h.Access(0, 0x4000, false) // prefetches 0x4040 into L2 and L3
	h.Access(0, 0x4080, false) // demand-fills 0x4080, prefetches 0x40c0
	// An L1 miss whose next line is already in L2 prefetches nothing.
	if res := h.Access(0, 0x4040, false); res.HitLevel != 2 || len(res.Mem) != 0 {
		t.Errorf("next line in L2: level=%d mem=%+v, want level 2 and no memory access", res.HitLevel, res.Mem)
	}
	// An L1 hit runs no prefetch.
	if res := h.Access(0, 0x4000, false); res.HitLevel != 1 || len(res.Mem) != 0 {
		t.Errorf("L1 hit: level=%d mem=%+v, want level 1 and no memory access", res.HitLevel, res.Mem)
	}
	// A next line only L3 holds is prefetched on chip: core 1's misses pull
	// 0x4040 and then 0x4080 from L3 into its L2 without memory traffic.
	if res := h.Access(1, 0x4000, false); res.HitLevel != 3 || len(res.Mem) != 0 {
		t.Errorf("core 1 L3 hit: level=%d mem=%+v, want level 3 and no memory access", res.HitLevel, res.Mem)
	}
	if res := h.Access(1, 0x4040, false); res.HitLevel != 2 || len(res.Mem) != 0 {
		t.Errorf("core 1 prefetched line: level=%d mem=%+v, want level 2 and no memory access", res.HitLevel, res.Mem)
	}
}

// TestHierarchyAccessZeroAllocs requires Access to allocate nothing,
// Result.Mem included, on a stream that sends every kind of memory access:
// demand fills, write-miss fills, prefetches and dirty writebacks, the
// latter from L1 victims cascading through L2 and L3. The lines cycle
// through four times the L3's capacity, every third access a store.
func TestHierarchyAccessZeroAllocs(t *testing.T) {
	h := testHierarchy(t)
	var i uint64
	var kinds [4]int // demand, fill, prefetch, writeback
	access := func() {
		core, line := int(i%2), (i*5)%512
		res := h.Access(core, line*64, i%3 == 0)
		i++
		for _, m := range res.Mem {
			switch {
			case m.Demand:
				kinds[0]++
			case m.Write:
				kinds[3]++
			case m.Addr == line*64:
				kinds[1]++
			default:
				kinds[2]++
			}
		}
	}
	// One run of 2,000 accesses, so that a single allocation shows: the
	// count AllocsPerRun returns is rounded down to whole allocations per run.
	if allocs := testing.AllocsPerRun(1, func() {
		for range 2000 {
			access()
		}
	}); allocs != 0 {
		t.Fatalf("2,000 accesses allocate %v times, want 0", allocs)
	}
	for k, name := range []string{"demand fills", "write-miss fills", "prefetches", "writebacks"} {
		if kinds[k] == 0 {
			t.Errorf("the stream sent no %s", name)
		}
	}
}

func TestStreamingHitsAfterWarmup(t *testing.T) {
	// With the prefetcher on, a forward stream should mostly hit in L2.
	h := testHierarchy(t)
	memAccesses := 0
	for i := 0; i < 64; i++ {
		res := h.Access(0, uint64(i*64), false)
		for _, m := range res.Mem {
			if m.Demand {
				memAccesses++
			}
		}
	}
	if memAccesses > 4 {
		t.Errorf("demand memory accesses on a stream = %d, want ≤ 4 (prefetcher covers the rest)", memAccesses)
	}
}

// TestCacheDifferentialVsSetScanReference pins the flat cache to the
// set-scanning cache it replaced (cacheRef, kept verbatim). Seeded random
// streams of Access and Fill, clean and dirty, with an occasional Reset, run
// over 1, 2 and 4 ways by 1, 2 and 8 sets, on line addresses drawn from a
// pool three times the capacity. After every op the return values, Stats and
// the residency of every pool address must agree; the reference's resident
// answer is its Contains taken before its Fill.
func TestCacheDifferentialVsSetScanReference(t *testing.T) {
	const ops = 20000
	for _, ways := range []int{1, 2, 4} {
		for _, sets := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%dway-%dset", ways, sets), func(t *testing.T) {
				cfg := Config{SizeBytes: 64 * ways * sets, LineBytes: 64, Ways: ways, Latency: clock.Nanosecond}
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := newCacheRef(cfg)
				if err != nil {
					t.Fatal(err)
				}
				seed := int64(100*ways + sets)
				rng := rand.New(rand.NewSource(seed))
				// Lines spread over a wide address range so tags differ in
				// their high bits, not only in the set index.
				pool := make([]uint64, 3*ways*sets)
				for i := range pool {
					pool[i] = (uint64(rng.Int63n(1<<24))*uint64(len(pool)) + uint64(i)) * 64
				}
				for op := 0; op < ops; op++ {
					addr := pool[rng.Intn(len(pool))] + uint64(rng.Intn(64))
					var what string
					switch r := rng.Intn(1000); {
					case r < 2:
						what = "Reset"
						c.Reset()
						ref.Reset()
					case r < 500:
						write := rng.Intn(3) == 0
						what = fmt.Sprintf("Access(%#x, write=%v)", addr, write)
						hit, v, has := c.Access(addr, write)
						rhit, rv, rhas := ref.Access(addr, write)
						if hit != rhit || v != rv || has != rhas {
							t.Fatalf("seed %d op %d %s = (%v, %#x, %v), reference (%v, %#x, %v)",
								seed, op, what, hit, v, has, rhit, rv, rhas)
						}
					default:
						dirty := rng.Intn(2) == 0
						what = fmt.Sprintf("Fill(%#x, dirty=%v)", addr, dirty)
						resident, v, has := c.Fill(addr, dirty)
						rresident := ref.Contains(addr)
						rv, rhas := ref.Fill(addr, dirty)
						if resident != rresident || v != rv || has != rhas {
							t.Fatalf("seed %d op %d %s = (%v, %#x, %v), reference (%v, %#x, %v)",
								seed, op, what, resident, v, has, rresident, rv, rhas)
						}
					}
					if got, want := c.Stats(), ref.Stats(); got != want {
						t.Fatalf("seed %d op %d %s: stats %+v, reference %+v", seed, op, what, got, want)
					}
					for _, p := range pool {
						if got, want := c.Contains(p), ref.Contains(p); got != want {
							t.Fatalf("seed %d op %d %s: line %#x resident %v, reference %v", seed, op, what, p, got, want)
						}
					}
				}
			})
		}
	}
}
