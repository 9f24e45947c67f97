package dram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentityMapping(t *testing.T) {
	rt := NewRemapTable(1024, 16)
	for _, r := range []int{0, 1, 511, 1023} {
		if got := rt.Physical(r); got != r {
			t.Errorf("Physical(%d) = %d before any remap", r, got)
		}
		if got := rt.Logical(r); got != r {
			t.Errorf("Logical(%d) = %d before any remap", r, got)
		}
	}
	if rt.Count() != 0 {
		t.Errorf("Count = %d, want 0", rt.Count())
	}
}

func TestRemapRoundTrip(t *testing.T) {
	rt := NewRemapTable(1024, 16)
	if err := rt.Remap(100); err != nil {
		t.Fatal(err)
	}
	phys := rt.Physical(100)
	if phys != 1024 {
		t.Errorf("first remap target = %d, want 1024 (first spare)", phys)
	}
	if got := rt.Logical(phys); got != 100 {
		t.Errorf("Logical(%d) = %d, want 100", phys, got)
	}
	// The vacated default home holds no logical row.
	if got := rt.Logical(100); got != -1 {
		t.Errorf("Logical(100) = %d, want -1 for vacated home", got)
	}
}

func TestRemapErrors(t *testing.T) {
	rt := NewRemapTable(8, 2)
	if err := rt.Remap(-1); err == nil {
		t.Error("negative row accepted")
	}
	if err := rt.Remap(8); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := rt.Remap(3); err != nil {
		t.Fatal(err)
	}
	if err := rt.Remap(3); err == nil {
		t.Error("double remap accepted")
	}
	if err := rt.Remap(4); err != nil {
		t.Fatal(err)
	}
	if err := rt.Remap(5); err == nil {
		t.Error("remap beyond spare capacity accepted")
	}
}

func TestRemappedSorted(t *testing.T) {
	rt := NewRemapTable(100, 10)
	for _, r := range []int{42, 7, 99} {
		if err := rt.Remap(r); err != nil {
			t.Fatal(err)
		}
	}
	got := rt.Remapped()
	want := []int{7, 42, 99}
	if len(got) != len(want) {
		t.Fatalf("Remapped() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Remapped() = %v, want %v", got, want)
		}
	}
}

func TestGenerateRemapTableDeterministic(t *testing.T) {
	p := DDR4_2400()
	a := GenerateRemapTable(p, rand.New(rand.NewSource(7)))
	b := GenerateRemapTable(p, rand.New(rand.NewSource(7)))
	ra, rb := a.Remapped(), b.Remapped()
	if len(ra) != len(rb) {
		t.Fatalf("non-deterministic remap counts: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("non-deterministic remap layout at %d: %d vs %d", i, ra[i], rb[i])
		}
	}
}

func TestGenerateRemapTableRate(t *testing.T) {
	// With SCF 1e-5 and 64Kbit rows the expected faulty-row count per
	// 131072-row bank is ~0.65 × 131072 / ... : perRow = 1e-5 * 65536 = 0.655,
	// capped by spares (1024). The generator must respect the spare budget.
	p := DDR4_2400()
	rt := GenerateRemapTable(p, rand.New(rand.NewSource(1)))
	if rt.Count() > p.SpareRowsPerBank {
		t.Errorf("remapped %d rows, above spare budget %d", rt.Count(), p.SpareRowsPerBank)
	}
	if rt.Count() == 0 {
		t.Error("expected a nonzero number of remapped rows at SCF 1e-5")
	}
}

func TestRemapBijectionProperty(t *testing.T) {
	// For any sequence of remaps, Logical(Physical(l)) == l for every
	// logical row, and distinct logical rows have distinct physical homes.
	f := func(seed int64, nRemaps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rt := NewRemapTable(256, 64)
		for i := 0; i < int(nRemaps%64); i++ {
			_ = rt.Remap(rng.Intn(256)) // duplicates rejected, fine
		}
		seen := make(map[int]bool)
		for l := 0; l < 256; l++ {
			p := rt.Physical(l)
			if rt.Logical(p) != l {
				return false
			}
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
