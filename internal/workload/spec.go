package workload

import (
	"fmt"
	"math/rand"
	"sort"
)

// SPECProfile is the memory-behaviour fingerprint of one SPEC CPU2006
// application: access intensity, footprint, and locality structure. The
// values are calibrated approximations of published characterisations (the
// original traces are not redistributable); the paper's evaluation depends
// only on the relative shape, not on instruction-exact replay.
type SPECProfile struct {
	Name        string
	MAPKI       float64 // memory accesses per kilo-instruction reaching the caches
	FootprintMB int     // resident working set
	StreamFrac  float64 // fraction of accesses that continue a sequential run
	WriteFrac   float64 // store fraction
}

// profiles lists all 29 SPEC CPU2006 rate applications. The nine the paper
// classifies as spec-high (most memory-intensive) are mcf, milc, leslie3d,
// soplex, GemsFDTD, libquantum, lbm, sphinx3, and omnetpp.
var profiles = []SPECProfile{
	{"perlbench", 2.1, 50, 0.55, 0.35},
	{"bzip2", 4.5, 60, 0.60, 0.30},
	{"gcc", 5.8, 80, 0.50, 0.35},
	{"mcf", 38.0, 860, 0.15, 0.25},
	{"gobmk", 2.7, 28, 0.45, 0.30},
	{"hmmer", 3.4, 24, 0.70, 0.40},
	{"sjeng", 2.4, 170, 0.40, 0.25},
	{"libquantum", 26.0, 64, 0.95, 0.25},
	{"h264ref", 3.1, 64, 0.75, 0.30},
	{"omnetpp", 21.0, 150, 0.25, 0.30},
	{"astar", 9.2, 330, 0.30, 0.25},
	{"xalancbmk", 11.4, 380, 0.35, 0.30},
	{"bwaves", 19.5, 870, 0.85, 0.20},
	{"gamess", 0.9, 20, 0.70, 0.35},
	{"milc", 25.5, 680, 0.65, 0.30},
	{"zeusmp", 10.8, 510, 0.70, 0.30},
	{"gromacs", 2.8, 28, 0.65, 0.30},
	{"cactusADM", 9.6, 650, 0.75, 0.30},
	{"leslie3d", 22.1, 120, 0.80, 0.30},
	{"namd", 1.6, 45, 0.70, 0.25},
	{"dealII", 5.2, 110, 0.55, 0.30},
	{"soplex", 24.3, 440, 0.40, 0.25},
	{"povray", 0.8, 7, 0.55, 0.35},
	{"calculix", 2.9, 120, 0.65, 0.30},
	{"GemsFDTD", 23.4, 840, 0.80, 0.30},
	{"tonto", 1.8, 40, 0.65, 0.30},
	{"lbm", 30.5, 410, 0.90, 0.40},
	{"wrf", 8.9, 680, 0.70, 0.30},
	{"sphinx3", 20.7, 45, 0.60, 0.15},
}

// specHigh lists the paper's nine memory-intensive applications.
var specHigh = []string{
	"mcf", "milc", "leslie3d", "soplex", "GemsFDTD",
	"libquantum", "lbm", "sphinx3", "omnetpp",
}

// Profiles returns all SPEC CPU2006 profiles, sorted by name.
func Profiles() []SPECProfile {
	out := append([]SPECProfile(nil), profiles...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ProfileByName finds one application's profile.
func ProfileByName(name string) (SPECProfile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return SPECProfile{}, fmt.Errorf("workload: unknown SPEC application %q", name)
}

// specGen emits a stream/random mixture over a private footprint.
type specGen struct {
	prof   SPECProfile
	base   uint64
	size   uint64
	cursor uint64
	runLen int
	gaps   gapSampler
	rng    *rand.Rand
}

// NewSPECLike builds one core's generator for the given profile over the
// address range [base, base+size).
func NewSPECLike(prof SPECProfile, base, size uint64, seed int64) Generator {
	rng := rand.New(rand.NewSource(seed))
	mean := 1000.0 / prof.MAPKI
	fp := uint64(prof.FootprintMB) << 20
	if fp > size || fp == 0 {
		fp = size
	}
	return &specGen{
		prof: prof,
		base: base,
		size: fp,
		gaps: gapSampler{mean: mean, rng: rng},
		rng:  rng,
	}
}

func (g *specGen) Name() string { return g.prof.Name }

func (g *specGen) Next() Access {
	if g.runLen > 0 && g.rng.Float64() < g.prof.StreamFrac {
		g.cursor += 64
		g.runLen--
	} else {
		//twicelint:checked size is bounded by DRAM capacity, far below 2^63
		g.cursor = uint64(g.rng.Int63n(int64(g.size))) &^ 63
		g.runLen = 4 + g.rng.Intn(60) // fresh sequential run
	}
	if g.cursor >= g.size {
		g.cursor = 0
	}
	return Access{
		Addr:  g.base + g.cursor,
		Write: g.rng.Float64() < g.prof.WriteFrac,
		Gap:   g.gaps.next(),
	}
}

// partition slices a memory of the given size into n equal per-core ranges.
func partition(memBytes uint64, n int) (base []uint64, size uint64) {
	size = memBytes / uint64(n) &^ 63
	base = make([]uint64, n)
	for i := range base {
		base[i] = uint64(i) * size
	}
	return base, size
}

// SPECRate builds the paper's SPECrate workload: n copies of one application,
// each on a private slice of memory.
func SPECRate(app string, cores int, memBytes uint64, seed int64) (Workload, error) {
	prof, err := ProfileByName(app)
	if err != nil {
		return Workload{}, err
	}
	base, size := partition(memBytes, cores)
	w := Workload{Name: "specrate-" + app, Gens: make([]Generator, cores)}
	for i := range w.Gens {
		w.Gens[i] = NewSPECLike(prof, base[i], size, seed+int64(i)*7919)
	}
	return w, nil
}

// MixHigh builds the paper's mix-high workload: the nine spec-high
// applications round-robined across the cores.
func MixHigh(cores int, memBytes uint64, seed int64) (Workload, error) {
	base, size := partition(memBytes, cores)
	w := Workload{Name: "mix-high", Gens: make([]Generator, cores)}
	for i := range w.Gens {
		prof, err := ProfileByName(specHigh[i%len(specHigh)])
		if err != nil {
			return Workload{}, err
		}
		w.Gens[i] = NewSPECLike(prof, base[i], size, seed+int64(i)*104729)
	}
	return w, nil
}

// MixBlend builds the paper's mix-blend workload: a random selection of
// applications regardless of memory intensity.
func MixBlend(cores int, memBytes uint64, seed int64) Workload {
	rng := rand.New(rand.NewSource(seed))
	base, size := partition(memBytes, cores)
	w := Workload{Name: "mix-blend", Gens: make([]Generator, cores)}
	for i := range w.Gens {
		prof := profiles[rng.Intn(len(profiles))]
		w.Gens[i] = NewSPECLike(prof, base[i], size, seed+int64(i)*15485863)
	}
	return w
}
