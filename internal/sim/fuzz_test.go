package sim

import (
	"testing"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/mc"
	"repro/internal/workload"
)

// FuzzNewMachine builds machines from fuzzed controller, timing and TWiCe
// configurations: NewMachine (or the TWiCe constructor before it) must
// return an error, or return a machine that runs 300 requests without
// panicking or erroring. Inputs stay small so no case allocates more than a
// few tens of MiB: at most 4 channels, 4 ranks, 64 banks per rank and 4096
// rows per bank, caches of 4/16/64 KiB, and cases whose TWiCe tables would
// exceed 2^19 entries in all are skipped. The run's simulated time is capped
// at 4096 refresh intervals, so a tiny tREFI cannot stretch one case into
// minutes of refresh work. The seed corpus under testdata/fuzz holds the
// default and quick-scale machines, 64 banks per rank, and one rank.
func FuzzNewMachine(f *testing.F) {
	f.Fuzz(func(t *testing.T, channels, ranks, banks, groups uint8, rows uint16,
		tREFW, tREFI, tRFC, tRC, tRCD, tRP, tRAS, tCL, tWR, tCCD, tCCDL, tRRD, tRRDL, tFAW, tBL int64,
		nth int32, queue, wq, wqHigh, wqLow, policy uint8,
		thRH int32, ways int8, org, work uint8) {
		cfg := DefaultConfig(2)
		p := &cfg.DRAM
		p.Channels = 1 + int(channels%4)
		p.RanksPerChannel = 1 + int(ranks%4)
		p.BanksPerRank = 1 + int(banks%64)
		p.BankGroups = int(groups % 5)
		p.RowsPerBank = 1 + int(rows%4096)
		p.SpareRowsPerBank = 8
		p.TREFW, p.TREFI, p.TRFC = clock.Time(tREFW), clock.Time(tREFI), clock.Time(tRFC)
		p.TRC, p.TRCD, p.TRP, p.TRAS = clock.Time(tRC), clock.Time(tRCD), clock.Time(tRP), clock.Time(tRAS)
		p.TCL, p.TWR, p.TBL = clock.Time(tCL), clock.Time(tWR), clock.Time(tBL)
		p.TCCD, p.TCCDL, p.TRRD, p.TRRDL, p.TFAW = clock.Time(tCCD), clock.Time(tCCDL), clock.Time(tRRD), clock.Time(tRRDL), clock.Time(tFAW)
		p.NTh = int(nth)
		cfg.MC = mc.NewConfig(*p)
		cfg.MC.QueueDepth = int(queue)
		cfg.MC.WriteQueueDepth = int(wq % 65)
		cfg.MC.WriteHigh, cfg.MC.WriteLow = int(wqHigh%65), int(wqLow%65)
		cfg.MC.PagePolicy = mc.PagePolicy(policy % 4)
		cfg.Cache.L1.SizeBytes, cfg.Cache.L2.SizeBytes, cfg.Cache.L3.SizeBytes = 4<<10, 16<<10, 64<<10

		ccfg := core.NewConfig(*p)
		ccfg.ThRH, ccfg.Ways, ccfg.Org = int(thRH), int(ways), core.Org(org%4)
		// The tables hold about TableBound entries per bank.
		if ccfg.Validate() == nil && ccfg.TableBound() > (1<<19)/p.TotalBanks() {
			t.Skip("TWiCe tables too large for a fuzz input")
		}
		def, err := core.New(ccfg)
		if err != nil {
			return
		}
		amap, err := mc.NewAddrMap(*p)
		if err != nil {
			return // NewMachine rejects the same geometry; the workloads need the map
		}
		var w workload.Workload
		switch work % 3 {
		case 0:
			w = workload.S1(amap, *p, 1)
		case 1:
			w = workload.S3(amap, *p, p.RowsPerBank/2)
		default:
			if w, err = workload.MixHigh(2, uint64(p.TotalCapacityBytes()), 1); err != nil {
				return
			}
		}
		m, err := NewMachine(cfg, def, w)
		if err != nil {
			return
		}
		lim := Limits{MaxRequests: 300, MaxTime: clock.Millisecond}
		if p.TREFI < lim.MaxTime/4096 {
			lim.MaxTime = 4096 * p.TREFI
		}
		if _, err := m.Run(lim); err != nil {
			t.Fatalf("NewMachine accepted the config, but the run failed: %v", err)
		}
	})
}
