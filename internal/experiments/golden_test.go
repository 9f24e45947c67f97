package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"io"
	"os"
	"testing"

	"repro/internal/probe"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

// goldenPath holds the digests TestGoldenDigests pins across commits.
const goldenPath = "testdata/golden.json"

// goldenDigests are SHA-256 digests of one tinyScale Figure 7(b) grid's
// exports (the cells CSV, the telemetry CSV, and the Perfetto trace) and of
// one cache-fronted grid's cells CSV followed by its telemetry CSV.
type goldenDigests struct {
	CellsCSV     string `json:"fig7b_cells_csv"`
	TelemetryCSV string `json:"fig7b_telemetry_csv"`
	Trace        string `json:"fig7b_trace"`
	Cached       string `json:"cached_cells_telemetry_csv"`
}

// sha256Of digests whatever write emits.
func sha256Of(t *testing.T, write func(io.Writer) error) string {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenDigests pins the simulated output byte for byte against digests
// committed with the code, so a refactor that changes any cell, gauge
// sample, or trace event fails here even when same-commit determinism still
// holds. After an intended output change, regenerate the digests with
// `go test ./internal/experiments -run TestGoldenDigests -update`.
func TestGoldenDigests(t *testing.T) {
	s := tinyScale()
	s.Requests = 6000
	s.Parallel = 2
	// Flight-recorder mode keeps the trace (and this test's memory) small
	// while still covering the detection pin.
	col, err := probe.NewCollector(true, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Telemetry = col
	cells, err := Figure7b(s)
	if err != nil {
		t.Fatal(err)
	}
	got := goldenDigests{
		CellsCSV:     sha256Of(t, func(w io.Writer) error { return WriteCellsCSV(w, cells) }),
		TelemetryCSV: sha256Of(t, col.WriteCSV),
		Trace:        sha256Of(t, col.WriteTrace),
	}
	// Every Figure 7(b) cell bypasses the caches, so a second grid pins the
	// cache hierarchy, its prefetcher and the multi-core scheduler:
	// mix-high and specrate:lbm under TWiCe on the same collector.
	cached, err := s.runGrid([]cellJob{
		{label: "mix-high", workload: "mix-high", defense: "TWiCe"},
		{label: "specrate-lbm", workload: "specrate:lbm", defense: "TWiCe"},
	})
	if err != nil {
		t.Fatal(err)
	}
	got.Cached = sha256Of(t, func(w io.Writer) error {
		if err := WriteCellsCSV(w, cached); err != nil {
			return err
		}
		return col.WriteCSV(w)
	})
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want goldenDigests
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("export digests changed:\n  got  %+v\n  want %+v", got, want)
	}
}
