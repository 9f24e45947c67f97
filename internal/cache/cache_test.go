package cache

import (
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
	if _, has := c.Fill(0x40, false); has {
		t.Error("fill into empty cache evicted")
	}
	if !c.Contains(0x40) {
		t.Error("fill did not allocate")
	}
	// Fill of a resident line with dirty=true marks it dirty.
	c.Fill(0x40, true)
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

// fills returns the memory accesses of res that are not prefetches: the
// demand or write-allocate fill and any writebacks.
func fills(res Result) []MemAccess {
	var out []MemAccess
	for _, m := range res.Mem {
		if !m.Prefetch {
			out = append(out, m)
		}
	}
	return out
}

func TestHierarchyMissGoesToMemory(t *testing.T) {
	h := testHierarchy(t)
	res := h.Access(0, 0x10000, false)
	if res.HitLevel != 0 {
		t.Fatalf("cold access hit level %d", res.HitLevel)
	}
	if f := fills(res); len(f) != 1 || f[0].Addr != 0x10000 || !f[0].Demand {
		t.Fatalf("memory accesses = %+v", res.Mem)
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
	if f := fills(res); len(f) != 1 || f[0].Addr != 0x2000 || f[0].Demand {
		t.Errorf("write miss accesses = %+v, want non-demand fill", res.Mem)
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

func TestPrefetcherIssuesNextLine(t *testing.T) {
	h := testHierarchy(t)
	res := h.Access(0, 0x4000, false)
	var sawPrefetch bool
	for _, m := range res.Mem {
		if m.Prefetch && m.Addr == 0x4040 {
			sawPrefetch = true
		}
	}
	if !sawPrefetch {
		t.Fatalf("no next-line prefetch in %+v", res.Mem)
	}
	if h.Prefetches() != 1 {
		t.Errorf("prefetches = %d", h.Prefetches())
	}
	// The prefetched line now hits in L2.
	if res := h.Access(0, 0x4040, false); res.HitLevel != 2 {
		t.Errorf("prefetched line hit level %d, want 2", res.HitLevel)
	}
}

func TestPrefetcherSkipsResidentLines(t *testing.T) {
	h := testHierarchy(t)
	h.Access(0, 0x4000, false) // prefetches 0x4040
	before := h.Prefetches()
	h.Access(0, 0x4080, false) // next line 0x40c0: fresh prefetch
	h.Access(0, 0x4000, false) // L1 hit: no prefetch at all
	if got := h.Prefetches(); got != before+1 {
		t.Errorf("prefetches = %d, want %d", got, before+1)
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
