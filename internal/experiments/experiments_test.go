package experiments

import (
	"strings"
	"testing"
)

// tinyScale shrinks QuickScale further for unit-test speed.
func tinyScale() Scale {
	s := QuickScale()
	s.Cores = 2
	s.Requests = 25000
	s.SPECApps = []string{"mcf", "povray"}
	return s
}

func TestScalesAreSound(t *testing.T) {
	for _, s := range []Scale{PaperScale(), QuickScale()} {
		cfg := s.machineConfig()
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if 4*s.ThRH > s.NTh {
			t.Errorf("%s: thRH %d unsound for Nth %d", s.Name, s.ThRH, s.NTh)
		}
	}
	if len(PaperScale().SPECApps) != 29 {
		t.Errorf("paper scale runs %d SPEC apps, want 29", len(PaperScale().SPECApps))
	}
}

func TestNewDefenseCoversAllNames(t *testing.T) {
	s := QuickScale()
	p := s.machineConfig().DRAM
	names := append(DefenseNames(), "none", "TWiCe-fa", "TWiCe-sep", "CRA", "PRoHIT", "Graphene")
	for _, n := range names {
		d, err := s.NewDefense(n, p)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if d == nil {
			t.Errorf("%s: nil defense", n)
		}
	}
	if _, err := s.NewDefense("bogus", p); err == nil {
		t.Error("unknown defense accepted")
	}
}

func TestTable2QuickAndPaper(t *testing.T) {
	paper := Table2(PaperScale())
	if paper.ThPI != 4 || paper.MaxLife != 8192 || paper.MaxACT != 165 || paper.TableBound != 556 {
		t.Errorf("paper Table 2 = %+v", paper)
	}
	quick := Table2(QuickScale())
	if quick.ThPI != 4 || quick.MaxLife != 128 {
		t.Errorf("quick Table 2 = %+v (scaling must preserve thPI)", quick)
	}
}

func TestTable4Render(t *testing.T) {
	out := Table4(QuickScale())
	for _, want := range []string{"PAR-BS", "minimalist-open", "DDR4-2400", "L3 16MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 4 output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure7bShapes(t *testing.T) {
	s := tinyScale()
	cells, err := Figure7b(s)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Cell{}
	for _, c := range cells {
		byKey[c.Workload+"/"+c.Defense] = c
	}
	if len(byKey) != 12 {
		t.Fatalf("got %d cells, want 12", len(byKey))
	}
	// TWiCe: zero on S1 and S2, ≈ 2/thRH on S3; nothing flips anywhere.
	if c := byKey["S1/TWiCe"]; c.Ratio != 0 {
		t.Errorf("TWiCe S1 ratio = %v, want 0", c.Ratio)
	}
	if c := byKey["S2/TWiCe"]; c.Ratio != 0 {
		t.Errorf("TWiCe S2 ratio = %v, want 0", c.Ratio)
	}
	s3 := byKey["S3/TWiCe"]
	want := 2.0 / float64(s.ThRH)
	if s3.Ratio < want/2 || s3.Ratio > want*2 {
		t.Errorf("TWiCe S3 ratio = %v, want ≈ %v", s3.Ratio, want)
	}
	// CBT must dwarf TWiCe on its adversarial patterns.
	if byKey["S3/CBT-256"].Ratio < 10*s3.Ratio {
		t.Errorf("CBT S3 (%v) not ≫ TWiCe S3 (%v)", byKey["S3/CBT-256"].Ratio, s3.Ratio)
	}
	// S2-vs-CBT is asserted at paper parameters in the cbt package
	// (TestS2SweepBurstsAtPaperScale): the quick scale shrinks thresholds
	// and the window but not CBT's 256-counter structure, so pool
	// exhaustion — the S2 mechanism — does not fit in a shrunken window.
	// Here only TWiCe's zero matters.
	// PARA tracks its probability on every synthetic.
	for _, wl := range []string{"S1", "S2", "S3"} {
		c := byKey[wl+"/PARA-0.002"]
		if c.Ratio < 0.001 || c.Ratio > 0.004 {
			t.Errorf("PARA-0.002 %s ratio = %v, want ≈ 0.002", wl, c.Ratio)
		}
	}
	// The deterministic schemes never let a flip through. PARA's guarantee
	// is only probabilistic: at this scaled-down Nth (2048) its per-window
	// failure probability is ≈ e^-1, so flips are expected — exactly the
	// §3.4 criticism (at the paper's Nth = 139K the probability is e^-34).
	for k, c := range byKey {
		if strings.HasPrefix(c.Defense, "PARA") {
			continue
		}
		if c.Flips != 0 {
			t.Errorf("%s: %d flips", k, c.Flips)
		}
	}
}

func TestRenderCells(t *testing.T) {
	out := RenderCells("Figure 7(b)", []Cell{{Workload: "S3", Defense: "TWiCe", Ratio: 0.0000610, NormalACTs: 32768, ExtraACTs: 2}})
	if !strings.Contains(out, "S3") || !strings.Contains(out, "TWiCe") || !strings.Contains(out, "0.0061%") {
		t.Errorf("render output:\n%s", out)
	}
}

func TestTable3MeasuredOverheads(t *testing.T) {
	s := tinyScale()
	b, err := Table3Measured(s)
	if err != nil {
		t.Fatal(err)
	}
	// §7.1: count energy well below 1% of ACT/PRE energy, update energy
	// below 1% of refresh energy (pa-TWiCe common case is cheaper still).
	if b.CountOverhead() <= 0 || b.CountOverhead() > 0.01 {
		t.Errorf("count overhead = %v, want (0, 1%%]", b.CountOverhead())
	}
	if b.UpdateOverhead() <= 0 || b.UpdateOverhead() > 0.01 {
		t.Errorf("update overhead = %v, want (0, 1%%]", b.UpdateOverhead())
	}
}

func TestAreaReportQuick(t *testing.T) {
	a := AreaReport(PaperScale())
	if a.Entries != 556 || a.NarrowEntries != 124 {
		t.Errorf("area entries = %+v", a)
	}
}
