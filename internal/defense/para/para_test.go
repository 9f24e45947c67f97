package para

import (
	"math"
	"testing"

	"repro/internal/dram"
)

func params() dram.Params {
	p := dram.DDR4_2400()
	p.RowsPerBank = 4096
	return p
}

func TestNewRejectsBadProbability(t *testing.T) {
	for _, p := range []float64{0, -0.1, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := New(p, params(), 1); err == nil {
			t.Errorf("probability %v accepted", p)
		}
	}
}

func TestName(t *testing.T) {
	pa, err := New(0.001, params(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Name() != "PARA-0.001" {
		t.Errorf("Name() = %q", pa.Name())
	}
}

func TestRefreshRateMatchesProbability(t *testing.T) {
	// The Figure 7 PARA bars: additional ACTs ≈ p of normal ACTs.
	const n = 2_000_000
	for _, prob := range []float64{0.001, 0.002} {
		pa, err := New(prob, params(), 42)
		if err != nil {
			t.Fatal(err)
		}
		var victims int
		for i := 0; i < n; i++ {
			a := pa.OnActivate(dram.BankID{}, 100+(i%1000), 0)
			victims += len(a.LogicalVictims)
		}
		got := float64(victims) / n
		if math.Abs(got-prob)/prob > 0.10 {
			t.Errorf("p=%v: refresh rate %v deviates more than 10%%", prob, got)
		}
		if pa.Refreshes() != int64(victims) {
			t.Errorf("Refreshes() = %d, victims = %d", pa.Refreshes(), victims)
		}
	}
}

func TestVictimsAreNeighbours(t *testing.T) {
	pa, err := New(0.5, params(), 7)
	if err != nil {
		t.Fatal(err)
	}
	const row = 500
	for i := 0; i < 10000; i++ {
		a := pa.OnActivate(dram.BankID{}, row, 0)
		for _, v := range a.LogicalVictims {
			if v != row-1 && v != row+1 {
				t.Fatalf("victim %d is not adjacent to %d", v, row)
			}
		}
	}
}

func TestBothSidesRefreshed(t *testing.T) {
	pa, err := New(0.5, params(), 7)
	if err != nil {
		t.Fatal(err)
	}
	sides := map[int]int{}
	for i := 0; i < 10000; i++ {
		a := pa.OnActivate(dram.BankID{}, 500, 0)
		for _, v := range a.LogicalVictims {
			sides[v]++
		}
	}
	if sides[499] == 0 || sides[501] == 0 {
		t.Errorf("one-sided refreshes only: %v", sides)
	}
	ratio := float64(sides[499]) / float64(sides[501])
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("sides unbalanced: %v", sides)
	}
}

func TestEdgeRowsFallBackInRange(t *testing.T) {
	pa, err := New(0.999, params(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		for _, row := range []int{0, params().RowsPerBank - 1} {
			a := pa.OnActivate(dram.BankID{}, row, 0)
			for _, v := range a.LogicalVictims {
				if v < 0 || v >= params().RowsPerBank {
					t.Fatalf("victim %d out of range for edge row %d", v, row)
				}
			}
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() []int {
		pa, _ := New(0.01, params(), 99)
		var out []int
		for i := 0; i < 10000; i++ {
			a := pa.OnActivate(dram.BankID{}, i%100, 0)
			out = append(out, len(a.LogicalVictims))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("PARA not deterministic under a fixed seed")
		}
	}
}

func TestNeverDetects(t *testing.T) {
	pa, _ := New(0.002, params(), 1)
	for i := 0; i < 100000; i++ {
		if a := pa.OnActivate(dram.BankID{}, 7, 0); a.Detected {
			t.Fatal("PARA claimed detection; it is attack-oblivious by design")
		}
	}
}
