package twice

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/clock"
	"repro/internal/mc"
)

// scaled returns a fast machine for facade tests (1 ms refresh window).
func scaled() Config {
	cfg := DefaultConfig(1)
	cfg.DRAM.TREFW = clock.Millisecond
	cfg.DRAM.NTh = 2048
	cfg.MC = mc.NewConfig(cfg.DRAM)
	return cfg
}

func TestQuickstartFlow(t *testing.T) {
	cfg := scaled()
	tcfg := NewTWiCeConfig(cfg.DRAM)
	tcfg.ThRH = 512
	def, err := NewTWiCeWith(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := WorkloadS3(cfg, 5000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, def, w, Requests(100000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Detections == 0 {
		t.Error("hammer not detected through the public API")
	}
	if len(res.Flips) != 0 {
		t.Error("flips under TWiCe")
	}
}

func TestDefenseConstructors(t *testing.T) {
	p := DDR4()
	if _, err := NewTWiCe(p); err != nil {
		t.Error(err)
	}
	if _, err := NewPARA(0.001, p, 1); err != nil {
		t.Error(err)
	}
	if _, err := NewCBT(p); err != nil {
		t.Error(err)
	}
	if _, err := NewCRA(p); err != nil {
		t.Error(err)
	}
	if _, err := NewPRoHIT(p, 1); err != nil {
		t.Error(err)
	}
	if NoDefense().Name() != "none" {
		t.Error("NoDefense misnamed")
	}
}

// constructor is one facade workload call.
type constructor struct {
	name  string
	build func() (Workload, error)
}

// synthetics lists each address-mapped facade workload over cfg.
func synthetics(cfg Config) []constructor {
	return []constructor{
		{"S1", func() (Workload, error) { return WorkloadS1(cfg, 1) }},
		{"S2", func() (Workload, error) { return WorkloadS2(cfg, 1000) }},
		{"S3", func() (Workload, error) { return WorkloadS3(cfg, 42) }},
		{"double-sided", func() (Workload, error) { return WorkloadDoubleSided(cfg, 42) }},
		{"many-sided", func() (Workload, error) { return WorkloadManySided(cfg, 1000, 8) }},
	}
}

func TestWorkloadConstructors(t *testing.T) {
	cfg := DefaultConfig(4)
	// The attacks also build at the extreme rows whose aggressors all lie
	// in the bank's 131,072 rows.
	edges := []constructor{
		{"S3/row=0", func() (Workload, error) { return WorkloadS3(cfg, 0) }},
		{"S3/row=131071", func() (Workload, error) { return WorkloadS3(cfg, 131071) }},
		{"double-sided/victim=1", func() (Workload, error) { return WorkloadDoubleSided(cfg, 1) }},
		{"double-sided/victim=131070", func() (Workload, error) { return WorkloadDoubleSided(cfg, 131070) }},
		{"many-sided/base=131064/n=4", func() (Workload, error) { return WorkloadManySided(cfg, 131064, 4) }},
	}
	for _, c := range append(synthetics(cfg), edges...) {
		w, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	if err := WorkloadMICA(4, cfg, 1).Validate(); err != nil {
		t.Error(err)
	}
	if _, err := WorkloadSPECRate("mcf", 4, cfg, 1); err != nil {
		t.Error(err)
	}
	if _, err := WorkloadMixHigh(4, cfg, 1); err != nil {
		t.Error(err)
	}
}

// TestWorkloadConstructorsReturnErrors gives the address-mapped
// constructors inputs they cannot build: a geometry the address map refuses
// (a row count that is not a power of two, matched in MC.DRAM, which
// Config.Validate must reject too), a many-sided hammer without an
// aggressor row or with more than the bank holds, which workload.ManySided
// cannot build (n < 0 panics at construction, n = 0 at the first access,
// n = MaxInt allocating its rows), and attacks with an aggressor outside the
// default geometry's 131,072 rows, which the address map would fold onto a
// different row. Each returns an error, and none panics.
func TestWorkloadConstructorsReturnErrors(t *testing.T) {
	def := DefaultConfig(1)
	bad := DefaultConfig(1)
	bad.DRAM.RowsPerBank = 100000
	bad.MC.DRAM = bad.DRAM
	if err := bad.Validate(); err == nil {
		t.Error("Config.Validate accepted RowsPerBank = 100000")
	}
	cases := synthetics(bad)
	for i := range cases {
		cases[i].name = "RowsPerBank=100000/" + cases[i].name
	}
	cases = append(cases,
		constructor{"many-sided/n=0", func() (Workload, error) { return WorkloadManySided(scaled(), 1000, 0) }},
		constructor{"many-sided/n=-1", func() (Workload, error) { return WorkloadManySided(scaled(), 1000, -1) }},
		constructor{"S3/row=-1", func() (Workload, error) { return WorkloadS3(def, -1) }},
		constructor{"S3/row=131072", func() (Workload, error) { return WorkloadS3(def, 131072) }},
		constructor{"S3/row=1<<20", func() (Workload, error) { return WorkloadS3(def, 1<<20) }},
		constructor{"double-sided/victim=0", func() (Workload, error) { return WorkloadDoubleSided(def, 0) }},
		constructor{"double-sided/victim=131071", func() (Workload, error) { return WorkloadDoubleSided(def, 131071) }},
		constructor{"many-sided/base=131070/n=4", func() (Workload, error) { return WorkloadManySided(def, 131070, 4) }},
		constructor{"many-sided/n=MaxInt", func() (Workload, error) { return WorkloadManySided(def, 0, math.MaxInt) }},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if _, err := c.build(); err == nil {
				t.Error("no error")
			}
		})
	}
}

// TestNoDebugHandlersOnDefaultMux pins that importing the library
// registers no debug endpoints on http.DefaultServeMux: net/http/pprof and
// expvar each add theirs at init, so neither may be linked in.
func TestNoDebugHandlersOnDefaultMux(t *testing.T) {
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		rec := httptest.NewRecorder()
		http.DefaultServeMux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want %d", path, rec.Code, http.StatusNotFound)
		}
	}
}

func TestDeriveThroughFacade(t *testing.T) {
	d := Derive(NewTWiCeConfig(DDR4()))
	if d.ThPI != 4 || d.MaxACT != 165 {
		t.Errorf("derived = %+v", d)
	}
	if Table3Energy().DRAMActPre.NanoJ != 11.49 {
		t.Error("Table 3 constants wrong through facade")
	}
	if a := AreaModel(NewTWiCeConfig(DDR4())); a.Entries != 556 {
		t.Errorf("area entries = %d", a.Entries)
	}
}

func TestTraceRoundTripThroughFacade(t *testing.T) {
	cfg := scaled()
	var buf bytes.Buffer
	attack, err := WorkloadS3(cfg, 123)
	if err != nil {
		t.Fatal(err)
	}
	if err := RecordTrace(&buf, attack, 5000); err != nil {
		t.Fatal(err)
	}
	w, err := WorkloadFromTrace("replayed-attack", bytes.NewReader(buf.Bytes()), true)
	if err != nil {
		t.Fatal(err)
	}
	if !w.BypassCache || w.Cores() != 1 {
		t.Fatalf("workload shape: %+v", w)
	}
	tcfg := NewTWiCeConfig(cfg.DRAM)
	tcfg.ThRH = 512
	def, err := NewTWiCeWith(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, def, w, Requests(30000))
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.NormalACTs == 0 {
		t.Error("replayed trace produced no activations")
	}
	if len(res.Flips) != 0 {
		t.Error("flips under TWiCe on the replayed attack")
	}
}

func TestWorkloadFromTraceRejectsGarbage(t *testing.T) {
	if _, err := WorkloadFromTrace("x", bytes.NewReader([]byte("junk")), false); err == nil {
		t.Error("garbage trace accepted")
	}
}

func TestManySidedThroughFacade(t *testing.T) {
	cfg := scaled()
	w, err := WorkloadManySided(cfg, 1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewTRR(cfg.DRAM); err != nil {
		t.Fatal(err)
	}
}
