package lint_test

import (
	"strings"
	"testing"

	"repro/internal/lint"
)

// The mutation spot-checks pin the acceptance criterion directly: starting
// from a clean source, deleting exactly one load-bearing construct — a probe
// nil guard, a Reset field assignment, an allocation-hoisting idiom, the only
// call to an exported function — must produce the corresponding finding. A rule that passes its golden fixture
// but misses these single-token regressions would be decorative.

const guardedSrc = `package m

type Recorder struct{ n int }

func (r *Recorder) Event() { r.n++ }

type machine struct{ probes *Recorder }

func (m *machine) tick() {
	if m.probes != nil {
		m.probes.Event()
	}
}
`

func TestMutationProbeGuardDeletion(t *testing.T) {
	const path = "repro/internal/probe/m"
	if fs := checkSource(t, path, guardedSrc); len(fs) != 0 {
		t.Fatalf("guarded source should be clean, got %v", fs)
	}
	mutated := strings.Replace(guardedSrc,
		"\tif m.probes != nil {\n\t\tm.probes.Event()\n\t}\n",
		"\tm.probes.Event()\n", 1)
	if mutated == guardedSrc {
		t.Fatal("mutation did not apply")
	}
	fs := checkSource(t, path, mutated)
	if got := findingsMatching(fs, lint.RuleProbeGuard, "not dominated by a nil guard"); len(got) != 1 {
		t.Fatalf("deleting the nil guard must be caught: want 1 probeguard finding, got %d in %v", len(got), fs)
	}
}

const resetSrc = `package m

type counters struct {
	acts  int64
	flips int64
}

func (c *counters) Reset() {
	c.acts = 0
	c.flips = 0
}
`

func TestMutationResetAssignmentDeletion(t *testing.T) {
	const path = "repro/internal/mc/m"
	if fs := checkSource(t, path, resetSrc); len(fs) != 0 {
		t.Fatalf("covering Reset should be clean, got %v", fs)
	}
	mutated := strings.Replace(resetSrc, "\tc.flips = 0\n", "", 1)
	if mutated == resetSrc {
		t.Fatal("mutation did not apply")
	}
	fs := checkSource(t, path, mutated)
	if got := findingsMatching(fs, lint.RuleResetCoverage, "does not reassign field flips"); len(got) != 1 {
		t.Fatalf("deleting the flips assignment must be caught: want 1 resetcoverage finding, got %d in %v", len(got), fs)
	}
}

const hotSrc = `package m

type kernel struct{ scratch []int }

//twicelint:hotpath per-ACT stand-in
func (k *kernel) step(n int) {
	k.scratch = append(k.scratch[:0], n)
}
`

func TestMutationCapacityEvidenceDeletion(t *testing.T) {
	const path = "repro/internal/sim/m"
	if fs := checkSource(t, path, hotSrc); len(fs) != 0 {
		t.Fatalf("scratch-reuse append should be clean, got %v", fs)
	}
	mutated := strings.Replace(hotSrc, "k.scratch[:0]", "k.scratch", 1)
	if mutated == hotSrc {
		t.Fatal("mutation did not apply")
	}
	fs := checkSource(t, path, mutated)
	if got := findingsMatching(fs, lint.RuleHotPath, "append without capacity evidence"); len(got) != 1 {
		t.Fatalf("dropping the [:0] reuse idiom must be caught: want 1 hotpath finding, got %d in %v", len(got), fs)
	}
}

func TestMutationDeadExportCallDeletion(t *testing.T) {
	mutated := strings.Replace(deadMain, "\t_ = x.Count(3)\n", "", 1)
	if mutated == deadMain {
		t.Fatal("mutation did not apply")
	}
	fs := checkProgram(t, deadLib, mutated)
	got := findingsMatching(fs, lint.RuleDeadExport, "repro/internal/x.Count is exported but has no caller outside tests")
	if len(got) != 1 || len(fs) != 1 {
		t.Fatalf("deleting the only call must be caught: want exactly 1 deadexport finding, got %v", fs)
	}
}
