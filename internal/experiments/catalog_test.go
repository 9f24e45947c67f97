package experiments

import (
	"testing"

	"repro/internal/mc"
)

// TestCatalogResolvesAllNames resolves both scale names and builds every
// catalogue workload at each, with specrate:<app> expanded over the scale's
// SPEC apps; unknown names must fail.
func TestCatalogResolvesAllNames(t *testing.T) {
	if _, err := ScaleByName("bogus"); err == nil {
		t.Error("unknown scale accepted")
	}
	for _, scale := range []string{"quick", "paper"} {
		s, err := ScaleByName(scale)
		if err != nil || s.Name != scale {
			t.Fatalf("ScaleByName(%q) = %q, %v", scale, s.Name, err)
		}
		var names []string
		for _, n := range AllWorkloads() {
			if n != specRate+"<app>" {
				names = append(names, n)
				continue
			}
			for _, app := range s.SPECApps {
				names = append(names, specRate+app)
			}
		}
		if len(names) <= len(AllWorkloads()) {
			t.Fatalf("%s scale: specrate:<app> expanded to %v", s.Name, names)
		}
		for _, n := range names {
			w, err := s.NewWorkload(n, AttackRow)
			if err == nil {
				err = w.Validate()
			}
			if err != nil {
				t.Errorf("%s scale, %s: %v", s.Name, n, err)
			}
		}
		for _, n := range []string{"bogus", "specrate:bogus", "specrate:<app>"} {
			if _, err := s.NewWorkload(n, AttackRow); err == nil {
				t.Errorf("%s scale: unknown workload %q accepted", s.Name, n)
			}
		}
	}
}

// TestNewWorkloadChecksFlags covers the two flag values NewWorkload is
// handed. A core count below one used to panic inside the generators, and an
// out-of-range row wrapped through the address map onto another row while
// the report still named the attack. Boundary rows must build and hammer
// exactly the row asked for.
func TestNewWorkloadChecksFlags(t *testing.T) {
	s := QuickScale()
	p := s.MachineConfig().DRAM
	amap, err := mc.NewAddrMap(p)
	if err != nil {
		t.Fatal(err)
	}
	last := p.RowsPerBank - 1
	for _, tc := range []struct {
		workload string
		cores    int
		row      int
		hammered int // row of the first access; -1 when the build must fail
	}{
		{"mix-high", -1, AttackRow, -1},
		{"FFT", 0, AttackRow, -1},
		{"S3", 0, AttackRow, -1},
		{"S3", 1, -1, -1},
		{"S3", 1, last + 1, -1},
		{"S3", 1, 0, 0},
		{"S3", 1, last, last},
		{"double-sided", 1, 0, -1},
		{"double-sided", 1, last, -1},
		{"double-sided", 1, 1, 0},
		{"double-sided", 1, last - 1, last - 2},
	} {
		s.Cores = tc.cores
		w, err := s.NewWorkload(tc.workload, tc.row)
		if tc.hammered < 0 {
			if err == nil {
				t.Errorf("%s cores=%d row=%d: accepted", tc.workload, tc.cores, tc.row)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s cores=%d row=%d: %v", tc.workload, tc.cores, tc.row, err)
			continue
		}
		if got := amap.Decompose(w.Gens[0].Next().Addr).Row; got != tc.hammered {
			t.Errorf("%s row=%d: first access hits row %d, want %d", tc.workload, tc.row, got, tc.hammered)
		}
	}
	// The row belongs to the attacks alone; other workloads ignore it.
	s.Cores = 1
	if _, err := s.NewWorkload("mix-high", -1); err != nil {
		t.Errorf("mix-high rejected an unused row: %v", err)
	}
}
