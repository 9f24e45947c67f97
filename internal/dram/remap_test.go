package dram

import (
	"math/rand"
	"slices"
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
	// With SCF 1e-5 and 64 Kibit rows a row is faulty with probability
	// 1e-5 × 65536 ≈ 0.655, so a 131,072-row bank expects ~85,900 faulty
	// rows, far above its 1,024 spares. The generator must respect the spare
	// budget.
	p := DDR4_2400()
	rt := GenerateRemapTable(p, rand.New(rand.NewSource(1)))
	if rt.Count() > p.SpareRowsPerBank {
		t.Errorf("remapped %d rows, above spare budget %d", rt.Count(), p.SpareRowsPerBank)
	}
	if rt.Count() == 0 {
		t.Error("expected a nonzero number of remapped rows at SCF 1e-5")
	}
}

// TestGenerateRemapTableMatchesReference pins GenerateRemapTable to the
// implementation it replaced (generateRemapTableRef): for seeds 1–20 at four
// fault rates, both tables must agree on Remapped, Count, Physical of every
// logical row and Logical of every physical row, and both must leave the rng
// at the same point, so every later bank's layout stays the same too. The
// rates give no faulty rows; an expected count of 0.6, so the fractional
// draw decides between 0 and 1; an expected ~100; and the DDR4_2400 default,
// whose ~85,900 expected rows are capped at the 1,024 spares.
func TestGenerateRemapTableMatchesReference(t *testing.T) {
	def := DDR4_2400()
	rowCells := float64(def.RowBytes()*8) * float64(def.RowsPerBank)
	for _, tc := range []struct {
		name string
		scf  float64
		n    func(int) bool // the count every seed must produce
	}{
		{"zero", 0, func(n int) bool { return n == 0 }},
		{"fractional", 0.6 / rowCells, func(n int) bool { return n <= 1 }},
		{"hundred", 100.4 / rowCells, func(n int) bool { return n == 100 || n == 101 }},
		{"default", def.SCFRate, func(n int) bool { return n == def.SpareRowsPerBank }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := def
			p.SCFRate = tc.scf
			counts := map[int]int{}
			for seed := int64(1); seed <= 20; seed++ {
				rng, refRng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				got, want := GenerateRemapTable(p, rng), generateRemapTableRef(p, refRng)
				if !tc.n(got.Count()) {
					t.Fatalf("seed %d: Count = %d, outside this rate's range", seed, got.Count())
				}
				counts[got.Count()]++
				if got.Count() != want.Count() {
					t.Fatalf("seed %d: Count = %d, reference %d", seed, got.Count(), want.Count())
				}
				if !slices.Equal(got.Remapped(), want.Remapped()) {
					t.Fatalf("seed %d: Remapped = %v, reference %v", seed, got.Remapped(), want.Remapped())
				}
				for l := 0; l < p.RowsPerBank; l++ {
					if g, w := got.Physical(l), want.Physical(l); g != w {
						t.Fatalf("seed %d: Physical(%d) = %d, reference %d", seed, l, g, w)
					}
				}
				for ph := 0; ph < want.PhysicalRows(); ph++ {
					if g, w := got.Logical(ph), want.Logical(ph); g != w {
						t.Fatalf("seed %d: Logical(%d) = %d, reference %d", seed, ph, g, w)
					}
				}
				if g, w := rng.Int63(), refRng.Int63(); g != w {
					t.Fatalf("seed %d: next draw %d, reference %d: the rng was drawn in another order", seed, g, w)
				}
			}
			if tc.name == "fractional" && (counts[0] == 0 || counts[1] == 0) {
				t.Errorf("fractional rate: counts %v over 20 seeds, want both 0 and 1", counts)
			}
		})
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
