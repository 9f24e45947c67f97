package lint_test

import (
	"go/types"
	"strings"
	"testing"

	"repro/internal/lint"
)

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkProgram analyzes an in-memory library at repro/internal/x together
// with, unless mainSrc is empty, a main package that imports it.
func checkProgram(t *testing.T, libSrc, mainSrc string) []lint.Finding {
	t.Helper()
	_, std := fixtureImporter()
	lib, libTypes := loadSource(t, std, "repro/internal/x", libSrc)
	pkgs := []*lint.Package{lib}
	if mainSrc != "" {
		imp := importerFunc(func(path string) (*types.Package, error) {
			if path == "repro/internal/x" {
				return libTypes, nil
			}
			return std.Import(path)
		})
		m, _ := loadSource(t, imp, "repro/cmd/m", mainSrc)
		pkgs = append(pkgs, m)
	}
	return lint.CheckAll(pkgs)
}

const deadLib = `package x

type Widget struct{ n int }
type Sizer interface{ Size() int }
type ByLen []string

func Used() Widget                 { return Widget{n: helper()} }
func Count(n int) int              { if n == 0 { return 0 }; return Count(n - 1) }
func (w Widget) String() string    { return "widget" }
func (w *Widget) Size() int        { return w.n }
func (s ByLen) Len() int           { return len(s) }
func (s ByLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s ByLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }
func helper() int                  { return 1 }
`

const deadMain = `package main

import ("sort"; "repro/internal/x")

func main() {
	_ = x.Used()
	_ = x.Count(3)
	sort.Sort(x.ByLen{"bb", "a"})
}
`

// TestDeadExportExemptions pins what the rule leaves alone: called functions,
// String, a method satisfying an interface declared in the load, sort.Sort's
// sort.Interface, a keep waiver, and a load without a main package.
func TestDeadExportExemptions(t *testing.T) {
	if fs := checkProgram(t, deadLib, deadMain); len(fs) != 0 {
		t.Errorf("every export is referenced or exempt, got %v", fs)
	}
	noCall := strings.Replace(deadMain, "\t_ = x.Count(3)\n", "", 1)
	kept := strings.Replace(deadLib, "func Count(", "//twicelint:keep fixture: called from another module\nfunc Count(", 1)
	if fs := checkProgram(t, kept, noCall); len(fs) != 0 {
		t.Errorf("//twicelint:keep on the declaration must silence the rule, got %v", fs)
	}
	if fs := checkProgram(t, deadLib, ""); len(fs) != 0 {
		t.Errorf("a load without a main package must not run the rule, got %v", fs)
	}
}
