package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/sim"
)

// The end-to-end phase. One orchestrating process runs each workload in
// fresh child processes, one at a time: the spread between processes (heap
// layout, scheduling) is larger than the spread within one, so the median
// is taken over reps from several children.
//
// On a shared host the speed of the machine itself drifts by tens of
// percent. Each child therefore times a fixed reference kernel (hostRef)
// between its phases and between its reps, and every timed sample is scaled
// to a host on which that kernel takes refNominal, using the kernel times
// taken just before and just after the sample. The unscaled values are kept
// in the result file.
const (
	minChildren    = 4
	maxChildren    = 24
	setupsPerChild = 5 // a run times ≥ minChildren × setupsPerChild constructions
	childTimeout   = 150 * time.Second
	refNominal     = 0.05 // s: the reference kernel's time on the nominal host
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics the end-to-end phase reports for every workload.
var endToEnd = []metricDef{
	{"req_per_s", "requests/s"},
	{"setup_s", "s"},
	{"heap_live_mb", "MiB"},
}

// metric is one reported value. N, Q1 and Q3 describe the samples the
// value is the median of.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// timed is one timed sample and the mean of the reference-kernel times
// taken just before and just after it.
type timed struct {
	S   float64 `json:"s"`
	Ref float64 `json:"ref"`
}

// scaled is the sample's time on the nominal host.
func (t timed) scaled() float64 { return t.S * refNominal / t.Ref }

// childReport is what one child process measured, printed as JSON.
type childReport struct {
	Setups    []timed   `json:"setups"`
	Reps      []timed   `json:"reps"`
	RefS      []float64 `json:"ref_s"`
	Failed    int       `json:"failed"`
	Digest    string    `json:"digest"`
	HeapMB    float64   `json:"heap_live_mb"`
	PeakRSSMB float64   `json:"peak_rss_mb"`
	Errors    []string  `json:"errors,omitempty"`
}

// runChild is the body of one child process: setupsPerChild timed machine
// constructions, an untimed warm-up rep that samples the live heap at every
// rep and cell boundary, then p.reps timed reps on the same recycled
// runner. The reference kernel runs before the constructions and after
// each phase and each rep.
func runChild(p *panel) childReport {
	var rep childReport
	fail := func(err error) { rep.Errors = append(rep.Errors, err.Error()) }
	ref := func() float64 {
		t := hostRef()
		rep.RefS = append(rep.RefS, t)
		return t
	}
	hostRef() // the first call also pays for faulting in its memory
	before := ref()
	var setups []float64
	for i := 0; i < setupsPerChild; i++ {
		s, err := p.setupOnce()
		if err != nil {
			fail(err)
			continue
		}
		setups = append(setups, s)
	}
	after := ref()
	for _, s := range setups {
		rep.Setups = append(rep.Setups, timed{s, (before + after) / 2})
	}
	var mu sync.Mutex
	sample := func() {
		runtime.GC()
		mb := liveHeapMB()
		mu.Lock()
		rep.HeapMB = max(rep.HeapMB, mb)
		mu.Unlock()
	}
	r := sim.NewCellRunner(p.cfg)
	sample()
	want, err := p.rep(r, sample)
	sample()
	if err == nil {
		err = p.checkGolden(want)
	}
	if err != nil {
		fail(err)
		rep.Failed = p.reps
		return rep
	}
	rep.Digest = want
	before = ref()
	for i := 0; i < p.reps; i++ {
		runtime.GC()
		start := time.Now()
		d, err := p.rep(r, nil)
		secs := time.Since(start).Seconds()
		after = ref()
		if err == nil && d != want {
			err = fmt.Errorf("rep %d digest %.12s differs from the warm-up rep's %.12s", i, d, want)
		}
		if err != nil {
			fail(err)
			rep.Failed++
		} else {
			rep.Reps = append(rep.Reps, timed{secs, (before + after) / 2})
		}
		before = after
	}
	rep.PeakRSSMB = peakRSSMB()
	return rep
}

// liveHeapMB reads the live heap the last GC left.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// workloadResult is one workload's end-to-end outcome.
type workloadResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailFrac  float64           `json:"fail_frac"`
	Digest    string            `json:"digest,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Unscaled holds the time metrics before scaling to the nominal host.
	Unscaled  map[string]metric `json:"unscaled,omitempty"`
	Children  int               `json:"children,omitempty"`
	PeakRSSMB float64           `json:"peak_rss_mb,omitempty"`
	Errors    []string          `json:"errors,omitempty"`
}

// runE2E measures one workload: children run one after another until
// seconds have passed, and at least minChildren. Their reference-kernel
// times are appended to hostRefs.
func runE2E(name string, seed int64, seconds float64, hostRefs *[]float64) (*workloadResult, error) {
	p, err := newPanel(name, seed, 1)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var reports []childReport
	var last time.Duration
	for len(reports) < minChildren || (len(reports) < maxChildren && time.Since(start)+last <= budget) {
		t0 := time.Now()
		rep, err := spawnChild(exe, name, seed)
		last = time.Since(t0)
		if err != nil {
			rep = childReport{Failed: p.reps, Errors: []string{err.Error()}}
		}
		reports = append(reports, rep)
		*hostRefs = append(*hostRefs, rep.RefS...)
	}
	return aggregate(p, reports), nil
}

// spawnChild runs one child process and decodes the report it prints.
func spawnChild(exe, name string, seed int64) (childReport, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", name, "-seed", strconv.FormatInt(seed, 10))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childReport{}, fmt.Errorf("child %s: %w", name, err)
	}
	var rep childReport
	if err := json.Unmarshal(lastLine(out), &rep); err != nil {
		return childReport{}, fmt.Errorf("child %s: decoding report: %w", name, err)
	}
	return rep, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// aggregate pools the children's scaled samples. Every child must report
// the same digest; reps of a child that disagrees with the first count as
// failed.
func aggregate(p *panel, reports []childReport) *workloadResult {
	res := &workloadResult{Workload: p.name, Seed: p.seed, Children: len(reports),
		Metrics: map[string]metric{}, Unscaled: map[string]metric{}}
	var reqPerS, setups, heaps, rawReqPerS, rawSetups []float64
	for _, c := range reports {
		res.Attempted += p.reps
		res.Failed += c.Failed
		res.Errors = append(res.Errors, c.Errors...)
		res.PeakRSSMB = max(res.PeakRSSMB, c.PeakRSSMB)
		if c.Digest == "" {
			continue // the child failed before its timed reps
		}
		if res.Digest == "" {
			res.Digest = c.Digest
		}
		if c.Digest != res.Digest {
			res.Failed += len(c.Reps)
			res.Errors = append(res.Errors, fmt.Sprintf("child digest %.12s differs from %.12s", c.Digest, res.Digest))
			continue
		}
		budget := float64(p.budget())
		for _, t := range c.Reps {
			rawReqPerS = append(rawReqPerS, budget/t.S)
			reqPerS = append(reqPerS, budget/t.scaled())
		}
		for _, t := range c.Setups {
			rawSetups = append(rawSetups, t.S)
			setups = append(setups, t.scaled())
		}
		heaps = append(heaps, c.HeapMB)
	}
	res.FailFrac = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0 && len(res.Errors) == 0
	for _, m := range []struct {
		def     metricDef
		samples []float64
	}{{endToEnd[0], reqPerS}, {endToEnd[1], setups}, {endToEnd[2], heaps}} {
		res.Metrics[m.def.name] = summarize(m.def.unit, m.samples)
	}
	res.Unscaled[endToEnd[0].name] = summarize(endToEnd[0].unit, rawReqPerS)
	res.Unscaled[endToEnd[1].name] = summarize(endToEnd[1].unit, rawSetups)
	return res
}

// summarize reports the median of samples with its quartiles.
func summarize(unit string, samples []float64) metric {
	q1, med, q3 := quartiles(samples)
	return metric{Value: med, Unit: unit, N: len(samples), Q1: q1, Q3: q3}
}

// quartiles returns the first quartile, the median and the third quartile,
// with the quartiles computed as Python's statistics.quantiles(n=4) does
// (the exclusive method).
func quartiles(samples []float64) (q1, med, q3 float64) {
	d := slices.Clone(samples)
	slices.Sort(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	if n%2 == 1 {
		med = d[n/2]
	} else {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), med, q(3)
}

// hostRef times a fixed reference kernel, sorting 2^19 pseudo-random
// integers: branchy code over a 4 MiB working set, like the simulator's.
func hostRef() float64 {
	v := make([]uint64, 1<<19)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = x
	}
	start := time.Now()
	slices.Sort(v)
	return time.Since(start).Seconds()
}

// hostStamps describe the host and build a result file was measured on.
type hostStamps struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	SetWallS   float64 `json:"set_wall_s"`
	HostRef    metric  `json:"host_ref_s"`
	Warning    string  `json:"warning,omitempty"`
}

func stamps(wall time.Duration, hostRefs []float64) hostStamps {
	h := hostStamps{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
		SetWallS:   wall.Seconds(),
		HostRef:    summarize("s", hostRefs),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					h.Revision += "+dirty"
				}
			}
		}
	}
	if h.NProc < 2 {
		h.Warning = fmt.Sprintf("nproc is %d: fig7b-grid's %d workers share one CPU", h.NProc, gridWorkers)
	}
	return h
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Host      hostStamps        `json:"host"`
	Phase     string            `json:"phase"`
	Workloads []*workloadResult `json:"workloads"`
}
