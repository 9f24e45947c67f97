package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/defense"
	"repro/internal/detutil"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/mc"
	"repro/internal/rcd"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// workloadNames lists the panel in report order. Every workload runs at the
// quick scale of experiments.QuickScale (tREFW 1 ms, NTh 2048, thRH 512),
// with TWiCe as pa-TWiCe, the classic event loop (epoch 0) and no channel
// workers.
var workloadNames = []string{"s3-attack", "mix-high", "lbm-stream", "fig7b-grid"}

// s3Row is the aggressor row of the S3 attack, the row the experiments use.
const s3Row = 5000

// gridWorkers is the fig7b-grid fan-out. It is fixed rather than taken from
// GOMAXPROCS so that a rep does the same work on every host.
const gridWorkers = 2

// singleReps and gridReps are the timed reps a measuring child runs. A
// single-run rep takes about a quarter of a second on a 2-vCPU host, the
// grid about two. Each process adds an offset of its own to its reps' times
// (with a standard deviation of about 6% on s3-attack), so a run spreads its
// reps over as many short-lived children as its time allows.
const (
	singleReps = 3
	gridReps   = 2
)

// A cell is one (workload, defense) simulation under a request budget.
type cell struct {
	wname, dname string
	build        func() (workload.Workload, error)
	lim          sim.Limits
}

// A panel is one named benchmark workload: the machine it runs on and the
// cells one rep simulates.
type panel struct {
	name  string
	seed  int64
	full  bool // full size: the golden digests apply
	scale experiments.Scale
	cfg   sim.Config
	cells []cell
	// reps is how many timed reps a measuring child runs.
	reps int
	// grid marks fig7b-grid, whose untraced rep is experiments.Figure7b
	// itself; its cells are the reconstruction the traced phase runs.
	grid bool
}

// budget is the rep's fixed request budget: the sum of its cells' limits.
func (p *panel) budget() int64 {
	var n int64
	for _, c := range p.cells {
		n += c.lim.MaxRequests
	}
	return n
}

// newPanel builds the named workload for a seed. frac scales the request
// budgets (1 for the benchmark; the smoke test runs at 1%).
func newPanel(name string, seed int64, frac float64) (*panel, error) {
	s := experiments.QuickScale()
	s.Seed = seed
	s.Parallel = gridWorkers
	size := func(n int64) int64 {
		if r := int64(float64(n) * frac); r > 0 {
			return r
		}
		return 1
	}
	p := &panel{name: name, seed: seed, full: frac == 1, scale: s, reps: singleReps}
	single := func(cores int, wname string, requests int64, build func(mem uint64) (workload.Workload, error)) {
		p.cfg = quickConfig(s, cores)
		mem := uint64(p.cfg.DRAM.TotalCapacityBytes())
		p.cells = []cell{{
			wname: wname,
			dname: "TWiCe",
			build: func() (workload.Workload, error) { return build(mem) },
			lim:   sim.Limits{MaxRequests: size(requests), MaxTime: 30 * clock.Second},
		}}
	}
	switch name {
	case "s3-attack":
		single(1, "S3", 250_000, func(uint64) (workload.Workload, error) {
			amap, err := mc.NewAddrMap(p.cfg.DRAM)
			if err != nil {
				return workload.Workload{}, err
			}
			return workload.S3(amap, p.cfg.DRAM, s3Row), nil
		})
	case "mix-high":
		single(4, "mix-high", 50_000, func(mem uint64) (workload.Workload, error) {
			return workload.MixHigh(4, mem, seed)
		})
	case "lbm-stream":
		single(4, "specrate-lbm", 87_500, func(mem uint64) (workload.Workload, error) {
			return workload.SPECRate("lbm", 4, mem, seed)
		})
	case "fig7b-grid":
		p.grid = true
		p.reps = gridReps
		p.scale.Requests = size(s.Requests)
		// An S2 cell's budget is three CBT exhaust-then-attack cycles, so a
		// smaller run shrinks the CBT threshold too.
		p.scale.CBTThreshold = max(64, int(float64(s.CBTThreshold)*frac))
		p.cfg = quickConfig(p.scale, p.scale.Cores)
		amap, err := mc.NewAddrMap(p.cfg.DRAM)
		if err != nil {
			return nil, err
		}
		dp := p.cfg.DRAM
		synthetics := []struct {
			name  string
			build func() workload.Workload
		}{
			{"S1", func() workload.Workload { return workload.S1(amap, dp, seed) }},
			{"S2", func() workload.Workload { return workload.S2(amap, dp, p.scale.CBTThreshold) }},
			{"S3", func() workload.Workload { return workload.S3(amap, dp, s3Row) }},
		}
		for _, syn := range synthetics {
			build := syn.build
			requests := p.scale.Requests
			if syn.name == "S2" {
				requests = s2Requests(p.scale)
			}
			for _, d := range experiments.DefenseNames() {
				p.cells = append(p.cells, cell{
					wname: syn.name,
					dname: d,
					build: func() (workload.Workload, error) { return build(), nil },
					lim:   sim.Limits{MaxRequests: requests, MaxTime: 30 * clock.Second},
				})
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return p, nil
}

// quickConfig is the machine experiments builds for a scale.
func quickConfig(s experiments.Scale, cores int) sim.Config {
	cfg := sim.DefaultConfig(cores)
	cfg.DRAM.TREFW = s.TREFW
	cfg.DRAM.NTh = s.NTh
	cfg.MC = mc.NewConfig(cfg.DRAM)
	cfg.Seed = s.Seed
	return cfg
}

// s2Requests is the budget experiments gives an S2 cell: three full
// exhaust-then-attack cycles. The traced phase checks that its grid
// reconstruction reproduces Figure7b's digest, which pins this copy.
func s2Requests(s experiments.Scale) int64 {
	cycle := int64(float64(s.CBTThreshold)*0.9*128) + 12*int64(s.CBTThreshold)
	return max(s.Requests, 3*cycle)
}

// runCell runs one cell on a recycled runner. wrap, when non-nil, replaces
// the defense and workload with traced wrappers.
func (p *panel) runCell(r *sim.CellRunner, c cell, wrap func(defense.Defense, workload.Workload) (defense.Defense, workload.Workload)) (*sim.Result, error) {
	def, err := p.scale.NewDefense(c.dname, p.cfg.DRAM)
	if err != nil {
		return nil, err
	}
	w, err := c.build()
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		def, w = wrap(def, w)
	}
	res, err := r.Run(def, w, c.lim)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", c.wname, c.dname, err)
	}
	return res, p.checkCell(c, res)
}

// checkCell enforces the invariants every cell result must meet.
func (p *panel) checkCell(c cell, res *sim.Result) error {
	switch {
	case c.dname == "TWiCe" && len(res.Flips) > 0:
		return fmt.Errorf("%s/%s: %d bit flips under TWiCe", c.wname, c.dname, len(res.Flips))
	case res.Counters.RequestsServed < c.lim.MaxRequests:
		return fmt.Errorf("%s/%s: served %d requests, budget %d", c.wname, c.dname, res.Counters.RequestsServed, c.lim.MaxRequests)
	case p.name == "s3-attack" && res.Counters.Detections == 0:
		return fmt.Errorf("%s/%s: the attack was never detected", c.wname, c.dname)
	}
	return nil
}

// rep runs one untraced rep and returns its digest. onCell, when non-nil,
// runs after each cell (for fig7b-grid from the grid's worker goroutines).
func (p *panel) rep(r *sim.CellRunner, onCell func()) (string, error) {
	if p.grid {
		s := p.scale
		if onCell != nil {
			s.Progress = func(int, int) { onCell() }
		}
		cells, err := experiments.Figure7b(s)
		if err != nil {
			return "", err
		}
		for _, c := range cells {
			if c.Defense == "TWiCe" && c.Flips > 0 {
				return "", fmt.Errorf("%s/%s: %d bit flips under TWiCe", c.Workload, c.Defense, c.Flips)
			}
		}
		return digest(cells)
	}
	res, err := p.runCell(r, p.cells[0], nil)
	if onCell != nil {
		onCell()
	}
	if err != nil {
		return "", err
	}
	return p.digest([]*sim.Result{res})
}

// digest renders a rep's results canonically: the grid as the
// []experiments.Cell Figure7b returns, a single run as its sim.Result.
func (p *panel) digest(results []*sim.Result) (string, error) {
	if p.grid {
		cells := make([]experiments.Cell, len(results))
		for i, res := range results {
			cells[i] = gridCell(p.cells[i], res)
		}
		return digest(cells)
	}
	return digest(canonical(results[0]))
}

// gridCell is the experiments.Cell Figure7b reports for a cell's result.
func gridCell(c cell, res *sim.Result) experiments.Cell {
	return experiments.Cell{
		Workload:   c.wname,
		Defense:    c.dname,
		Ratio:      res.Counters.AdditionalACTRatio(),
		NormalACTs: res.Counters.NormalACTs,
		ExtraACTs:  res.Counters.DefenseACTs,
		Detections: res.Counters.Detections,
		ARRs:       res.Counters.ARRs,
		Nacks:      res.Counters.Nacks,
		Flips:      int64(len(res.Flips)),
		SimTime:    res.SimTime,
	}
}

// canonicalResult is the part of a sim.Result the digest covers, with the
// detection map flattened into core order.
type canonicalResult struct {
	Counters         stats.Counters
	SimTime          clock.Time
	Flips            []dram.Flip
	RCD              rcd.Stats
	DetectionsByCore [][2]int64
	L3               cache.Stats
}

func canonical(res *sim.Result) canonicalResult {
	c := canonicalResult{Counters: res.Counters, SimTime: res.SimTime, Flips: res.Flips, RCD: res.RCD, L3: res.L3}
	for _, core := range detutil.SortedKeys(res.DetectionsByCore) {
		c.DetectionsByCore = append(c.DetectionsByCore, [2]int64{int64(core), res.DetectionsByCore[core]})
	}
	return c
}

// digest is the hex SHA-256 of v's JSON encoding.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// setupOnce times one construction of the panel's machine: the machine its
// first cell runs on, built by sim.NewMachine after a forced GC.
func (p *panel) setupOnce() (float64, error) {
	c := p.cells[0]
	def, err := p.scale.NewDefense(c.dname, p.cfg.DRAM)
	if err != nil {
		return 0, err
	}
	w, err := c.build()
	if err != nil {
		return 0, err
	}
	runtime.GC()
	start := time.Now()
	m, err := sim.NewMachine(p.cfg, def, w)
	d := time.Since(start).Seconds()
	runtime.KeepAlive(m)
	return d, err
}

// goldenJSON holds the full-size digest of every workload at seeds 1 and 2:
// {"workload": {"seed": "sha256"}}. Regenerate with -write-golden.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]map[string]string {
	var g map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench: embedded golden.json: %v", err))
	}
	return g
}()

// checkGolden compares a full-size digest with the golden one, when the seed
// has one.
func (p *panel) checkGolden(d string) error {
	want, ok := golden[p.name][strconv.FormatInt(p.seed, 10)]
	if !p.full || !ok || d == want {
		return nil
	}
	return fmt.Errorf("%s seed %d: digest %.12s differs from golden %.12s", p.name, p.seed, d, want)
}

// writeGolden recomputes every workload's digest at seeds 1 and 2 and
// writes golden.json.
func writeGolden(path string) error {
	g := map[string]map[string]string{}
	for _, name := range workloadNames {
		g[name] = map[string]string{}
		for _, seed := range []int64{1, 2} {
			p, err := newPanel(name, seed, 1)
			if err != nil {
				return err
			}
			d, err := p.rep(sim.NewCellRunner(p.cfg), nil)
			if err != nil {
				return err
			}
			g[name][strconv.FormatInt(seed, 10)] = d
			fmt.Printf("%-11s seed %d  %s\n", name, seed, d)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return writeFile(path, append(b, '\n'))
}
