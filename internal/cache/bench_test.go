package cache

import (
	"runtime"
	"testing"
)

// mix is the splitmix64 finalizer: a cheap, allocation-free hash that turns
// an access index into a well-spread address.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// BenchmarkHierarchyAccess times one core access through the Table 4
// hierarchy of four cores (DefaultHierarchy(4)), the cores taking turns.
// stream gives each core a forward stream of lines of its own, the shape the
// next-line prefetcher covers, so an access misses L1 and hits L2; random
// draws lines uniformly from 1 GiB, 64 times the L3, so nearly every access
// misses every level. Every fourth access of a core is a store, so dirty
// lines cascade into writebacks. It reports ns/access and allocs/access,
// which reads 0: Result.Mem reuses the hierarchy's backing array.
func BenchmarkHierarchyAccess(b *testing.B) {
	for _, bc := range []struct {
		name string
		addr func(core, k uint64) uint64 // address of core's k-th access
	}{
		{"stream", func(core, k uint64) uint64 { return core<<32 | k<<6 }},
		{"random", func(core, k uint64) uint64 { return mix(k<<2|core) & (1<<30 - 64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			h, err := NewHierarchy(DefaultHierarchy(4))
			if err != nil {
				b.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core, k := uint64(i)%4, uint64(i)/4
				h.Access(int(core), bc.addr(core, k), k%4 == 3)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/access")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/access")
		})
	}
}
