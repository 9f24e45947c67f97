package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/trace"
)

// TestSummariseBreaksTiesTowardLowestRow summarises a double-sided trace,
// whose two aggressor rows 4999 and 5001 tie at 1,000 accesses each, many
// times over: every summary must name row 4999, the lower of the two.
func TestSummariseBreaksTiesTowardLowestRow(t *testing.T) {
	s := experiments.PaperScale()
	s.Cores = 1
	w, err := s.NewWorkload("double-sided", experiments.AttackRow)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "double-sided.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Record(f, w.Gens[0], 2000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	const want = "hottest row: ch0/rk0/ba0/row4999/col0 with 1000 accesses"
	for i := 0; i < 50; i++ {
		var out bytes.Buffer
		if err := summarise(&out, path); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary %d names another row:\n%s", i, out.String())
		}
	}
}
