package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestCSVByteIdentity runs the measurement pipeline (workload → MC →
// defense → stats → CSV) twice with identical seeds and configuration and
// requires the emitted CSV — and the rendered text table — to be
// byte-for-byte identical. This is the committed form of the reproducibility
// criterion: same seed, same bytes.
func TestCSVByteIdentity(t *testing.T) {
	run := func() ([]byte, string) {
		s := tinyScale()
		var cells []Cell
		runner := sim.NewCellRunner(s.MachineConfig())
		for _, dname := range []string{"none", "TWiCe", "PARA-0.002"} {
			c, err := s.runCell(runner, cellJob{label: "S3", workload: "S3", defense: dname}, nil)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, c)
		}
		var buf bytes.Buffer
		if err := WriteCellsCSV(&buf, cells); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), RenderCells("determinism", cells)
	}
	csvA, txtA := run()
	csvB, txtB := run()
	if !bytes.Equal(csvA, csvB) {
		t.Errorf("CSV differs between identically-seeded runs:\n--- run 1\n%s--- run 2\n%s", csvA, csvB)
	}
	if txtA != txtB {
		t.Errorf("rendered table differs between identically-seeded runs:\n--- run 1\n%s--- run 2\n%s", txtA, txtB)
	}
}

// TestParallelSerialEquivalence is the committed form of the concurrency
// model's correctness claim: Figure 7(b) and Table 1 executed serially
// (Parallel = 1) and on a contended worker pool (Parallel = 4, more workers
// than this grid has distinct wall-clock phases) must produce identical
// []Cell slices, byte-identical CSV, and identical rendered rows. verify.sh
// additionally runs this test under the race detector, so the fan-out itself
// is a tested artifact.
func TestParallelSerialEquivalence(t *testing.T) {
	s := tinyScale()
	s.Requests = 6000 // equality is scale-independent; keep the -race pass fast

	serial, par := s, s
	serial.Parallel = 1
	par.Parallel = 4

	serialCells, err := Figure7b(serial)
	if err != nil {
		t.Fatal(err)
	}
	parCells, err := Figure7b(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialCells, parCells) {
		t.Errorf("Figure7b cells differ between serial and parallel runs:\n%v\n%v", serialCells, parCells)
	}
	var serialCSV, parCSV bytes.Buffer
	if err := WriteCellsCSV(&serialCSV, serialCells); err != nil {
		t.Fatal(err)
	}
	if err := WriteCellsCSV(&parCSV, parCells); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialCSV.Bytes(), parCSV.Bytes()) {
		t.Errorf("Figure7b CSV differs between serial and parallel runs:\n--- serial\n%s--- parallel\n%s",
			serialCSV.Bytes(), parCSV.Bytes())
	}

	serialRows, err := Table1(serial)
	if err != nil {
		t.Fatal(err)
	}
	parRows, err := Table1(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialRows, parRows) {
		t.Errorf("Table1 rows differ between serial and parallel runs:\n%v\n%v", serialRows, parRows)
	}
	if sr, pr := RenderTable1(serialRows), RenderTable1(parRows); sr != pr {
		t.Errorf("rendered Table 1 differs:\n--- serial\n%s--- parallel\n%s", sr, pr)
	}
}

// TestParallelFirstErrorMatchesSerial drives the grid runner with a failing
// cell (an unknown defense) and requires the parallel error to be the same
// first-in-grid-order error the serial loop reports.
func TestParallelFirstErrorMatchesSerial(t *testing.T) {
	s := tinyScale()
	s.Requests = 2000
	jobs := []cellJob{
		{label: "S3", workload: "S3", defense: "TWiCe"},
		{label: "S3", workload: "S3", defense: "bogus-a"},
		{label: "S3", workload: "S3", defense: "bogus-b"},
		{label: "S3", workload: "S3", defense: "TWiCe"},
	}
	serial, par := s, s
	serial.Parallel = 1
	par.Parallel = 4
	_, serialErr := serial.runGrid(jobs)
	_, parErr := par.runGrid(jobs)
	if serialErr == nil || parErr == nil {
		t.Fatalf("expected errors, got serial=%v parallel=%v", serialErr, parErr)
	}
	if serialErr.Error() != parErr.Error() {
		t.Errorf("parallel error %q differs from serial %q", parErr, serialErr)
	}
	if !strings.Contains(parErr.Error(), "bogus-a") {
		t.Errorf("error %q is not the first failing cell's", parErr)
	}
}

// TestAverageRowsDisplayOrder pins the defense ordering of the Figure 7(a)
// average rows: rows follow the DefenseNames display order (the order of the
// figure's bars), not the cells' or alphabetical order, and a defense with
// no cell gets no row.
func TestAverageRowsDisplayOrder(t *testing.T) {
	cells := []Cell{
		{Workload: "a", Defense: "TWiCe", Ratio: 0.2},
		{Workload: "a", Defense: "PARA-0.002", Ratio: 0.4},
		{Workload: "b", Defense: "TWiCe", Ratio: 0.4},
		{Workload: "b", Defense: "CBT-256", Ratio: 0.1},
	}
	want := averageRows(cells)
	// PARA-0.002 before CBT-256 even though "CBT" sorts first.
	if len(want) != 3 {
		t.Fatalf("%d average rows, want 3", len(want))
	}
	for i, n := range []string{"PARA-0.002", "CBT-256", "TWiCe"} {
		if want[i].Defense != n {
			t.Errorf("average row %d defense = %s, want %s", i, want[i].Defense, n)
		}
	}
	if twice := want[2]; twice.Ratio < 0.29 || twice.Ratio > 0.31 {
		t.Errorf("TWiCe average = %v, want ≈ 0.3", twice.Ratio)
	}
}
