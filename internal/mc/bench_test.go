package mc

import (
	"fmt"
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
// noise. Requests come from a recycled free list and readdress uniformly
// over the banks and a small row set (a mix of row hits, misses, and
// conflicts). ns/step and allocs/step divide by System.Steps over the timed
// region; the steady-state hot path allocates nothing, so allocs/step must
// read 0.
func BenchmarkSchedulerStep(b *testing.B) {
	for _, depth := range []int{8, 32, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
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
			now := clock.Time(0)
			pump := func() {
				for inflight < depth && len(free) > 0 {
					q := free[len(free)-1]
					free = free[:len(free)-1]
					*q = Request{
						ID: sys.NewID(),
						Addr: dram.Addr{
							Rank: rng.Intn(p.RanksPerChannel),
							Bank: rng.Intn(p.BanksPerRank),
							Row:  rng.Intn(16),
							Col:  rng.Intn(p.ColumnsPerRow),
						},
						Core: rng.Intn(4),
						Done: onDone,
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
