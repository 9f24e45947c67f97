package lint_test

import (
	"bufio"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/lint"
)

// Fixtures under testdata/src are type-checked with the stdlib source
// importer and analyzed under an assumed import path, so each fixture can
// opt in or out of the internal scope. The maprange fixture sits outside it
// because that rule covers every package.
var fixtures = []struct {
	dir    string
	asPath string
}{
	{"maprange", "repro/cmd/fixture"},
	{"nondeterm", "repro/internal/workload/fixture"},
	{"droppederr", "repro/cmd/fixture"},
	{"truncconv", "repro/internal/mc/fixture"},
	{"telemetry", "repro/internal/probe/fixture"},
	{"hotpath", "repro/internal/sim/hotfix"},
	{"probeguard", "repro/internal/probe/guardfix"},
	{"resetcoverage", "repro/internal/mc/resetfix"},
	{"directive", "repro/internal/sim/dirfix"},
	{"clean", "repro/internal/sim/clean"},
}

var (
	fixtureOnce sync.Once
	fixtureFset *token.FileSet
	fixtureImp  types.Importer
)

func fixtureImporter() (*token.FileSet, types.Importer) {
	fixtureOnce.Do(func() {
		fixtureFset = token.NewFileSet()
		fixtureImp = importer.ForCompiler(fixtureFset, "source", nil)
	})
	return fixtureFset, fixtureImp
}

// loadFixture parses and type-checks one testdata package.
func loadFixture(t *testing.T, dir, asPath string) *lint.Package {
	t.Helper()
	fset, imp := fixtureImporter()
	paths, err := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("globbing fixture %s: %v (found %d files)", dir, err, len(paths))
	}
	sort.Strings(paths)
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", p, err)
		}
		files = append(files, f)
	}
	info := lint.NewInfo()
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
	if _, err := conf.Check(asPath, fset, files, info); err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	return &lint.Package{Path: asPath, Fset: fset, Files: files, Info: info}
}

// expectation is one `// want <rule> "<substring>"` annotation.
type expectation struct {
	file string
	line int
	rule string
	sub  string
}

var wantRE = regexp.MustCompile(`//\s*want\s+(\w+)\s+"([^"]*)"`)

func readExpectations(t *testing.T, dir string) []expectation {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join("testdata", "src", dir, "*.go"))
	var out []expectation
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRE.FindStringSubmatch(sc.Text()); m != nil {
				out = append(out, expectation{file: p, line: line, rule: m[1], sub: m[2]})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestFixtures checks every fixture package against its want annotations:
// each annotated line must produce exactly that diagnostic at that
// position, and no unannotated line may produce any.
func TestFixtures(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			pkg := loadFixture(t, fx.dir, fx.asPath)
			findings := lint.CheckAll([]*lint.Package{pkg})
			wants := readExpectations(t, fx.dir)

			matched := make([]bool, len(findings))
			for _, w := range wants {
				found := false
				for i, f := range findings {
					if matched[i] || f.Pos.Line != w.line || f.Rule != w.rule {
						continue
					}
					if filepath.Base(f.Pos.Filename) != filepath.Base(w.file) {
						continue
					}
					if !strings.Contains(f.Message, w.sub) {
						t.Errorf("%s:%d: %s message %q does not contain %q",
							w.file, w.line, w.rule, f.Message, w.sub)
					}
					matched[i] = true
					found = true
					break
				}
				if !found {
					t.Errorf("%s:%d: expected %s finding containing %q, got none",
						w.file, w.line, w.rule, w.sub)
				}
			}
			for i, f := range findings {
				if !matched[i] {
					t.Errorf("unexpected finding: %s", f)
				}
			}
		})
	}
}

// TestCleanFixtureIsEmpty pins the clean fixture to exactly zero findings
// (the table above would catch stray findings too, but the criterion is
// worth stating on its own).
func TestCleanFixtureIsEmpty(t *testing.T) {
	pkg := loadFixture(t, "clean", "repro/internal/sim/clean")
	if findings := lint.CheckAll([]*lint.Package{pkg}); len(findings) != 0 {
		for _, f := range findings {
			t.Errorf("clean fixture produced: %s", f)
		}
	}
}

// TestExactPositions asserts full file:line:column positions for the first
// diagnostic of each bad fixture, so reporting cannot silently drift.
func TestExactPositions(t *testing.T) {
	cases := []struct {
		dir    string
		asPath string
		want   string // suffix of Finding.String()
	}{
		{"maprange", "repro/cmd/fixture",
			"maprange.go:11:2: maprange: nondeterministic iteration over map m; iterate detutil.SortedKeys(m) or annotate the loop with //twicelint:ordered"},
		{"nondeterm", "repro/internal/workload/fixture",
			"nondeterm.go:11:9: nondeterm: math/rand.Intn draws from the unseeded global source; use a rand.New(rand.NewSource(seed)) instance threaded from the run configuration"},
		{"droppederr", "repro/cmd/fixture",
			"droppederr.go:14:2: droppederr: call to os.Remove discards its error result; handle it or assign it explicitly"},
		{"truncconv", "repro/internal/mc/fixture",
			"truncconv.go:6:9: truncconv: conversion from uint64 to uint32 can truncate row/address arithmetic; mask or bound the operand, or annotate //twicelint:checked"},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			pkg := loadFixture(t, tc.dir, tc.asPath)
			findings := lint.CheckAll([]*lint.Package{pkg})
			if len(findings) == 0 {
				t.Fatalf("no findings in %s fixture", tc.dir)
			}
			got := findings[0].String()
			if !strings.HasSuffix(got, tc.want) {
				t.Errorf("first finding:\n  got  %s\n  want suffix %s", got, tc.want)
			}
		})
	}
}

// TestRepositoryIsClean runs the full analyzer over the repository — the
// same invocation verify.sh uses — and requires zero findings. This is the
// committed form of the acceptance criterion "twicelint ./... exits 0".
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-repo lint in -short mode")
	}
	findings, err := lint.Run("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("repository finding: %s", f)
	}
}
