package mc

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/dram"
)

// BenchmarkSchedulerStep times channel.step in isolation: one controller's
// event loop is pumped while its read queue is kept topped up to depth, so
// every step selects among ~depth candidates without workload-generation
// noise. Requests come from a recycled free list. The depth=N shapes
// readdress uniformly over the banks, a small row set and four cores (a mix
// of row hits, misses, and conflicts; batches form rarely and most banks
// are busy). The one-bank shape is S3's: one core sends every request to
// one row of one bank, so a PAR-BS batch forms every BatchCap requests and
// one bank is busy. ns/step and allocs/step divide by System.Steps over the
// timed region; the steady-state hot path allocates nothing, so allocs/step
// must read 0.
func BenchmarkSchedulerStep(b *testing.B) {
	shapes := []struct {
		name    string
		depth   int
		oneBank bool
	}{
		{"depth=8", 8, false},
		{"depth=32", 32, false},
		{"depth=64", 64, false},
		{"one-bank/depth=8", 8, true},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			depth := sh.depth
			p := dram.DDR4_2400()
			p.Channels = 1
			p.RanksPerChannel = 2
			p.BanksPerRank = 8
			p.RowsPerBank = 1 << 10
			cfg := NewConfig(p)
			cfg.QueueDepth = 2 * depth
			sys := newRig(b, cfg, defense.Nop{}).sys
			free := make([]*Request, 0, 2*depth+1)
			sys.SetRelease(func(q *Request) { free = append(free, q) })
			for i := 0; i < 2*depth+1; i++ {
				free = append(free, &Request{})
			}
			inflight := 0
			onDone := func(clock.Time) { inflight-- }
			rng := rand.New(rand.NewSource(7))
			col := 0
			now := clock.Time(0)
			pump := func() {
				for inflight < depth && len(free) > 0 {
					q := free[len(free)-1]
					free = free[:len(free)-1]
					*q = Request{ID: sys.NewID(), Done: onDone}
					if sh.oneBank {
						col = (col + 1) % p.ColumnsPerRow
						q.Addr = dram.Addr{Row: 5, Col: col}
					} else {
						q.Addr = dram.Addr{
							Rank: rng.Intn(p.RanksPerChannel),
							Bank: rng.Intn(p.BanksPerRank),
							Row:  rng.Intn(16),
							Col:  rng.Intn(p.ColumnsPerRow),
						}
						q.Core = rng.Intn(4)
					}
					if !sys.Enqueue(q, now) {
						free = append(free, q)
						break
					}
					inflight++
				}
				for i := 0; i < 8; i++ {
					now = sys.NextEvent()
					sys.Advance(now)
				}
			}
			for i := 0; i < 500; i++ { // warm every queue and index to steady state
				pump()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := sys.Steps()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pump()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			steps := float64(sys.Steps() - start)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/steps, "ns/step")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/steps, "allocs/step")
		})
	}
}
