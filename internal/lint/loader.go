package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/detutil"
)

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -json -deps patterns...` in dir and
// decodes the package stream. -export compiles every listed package to the
// build cache and reports the export-data file, which is what lets the
// analyzer type-check against dependencies using only the standard
// library: no golang.org/x/tools loader is involved.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=Dir,ImportPath,Export,Standard,DepOnly,GoFiles,ImportMap,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %w", err)
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// exportLookup builds the importer lookup table: import path → export-data
// file, with per-package import remappings folded in.
func exportLookup(pkgs []*listedPackage) map[string]string {
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	for _, p := range pkgs {
		for _, alias := range detutil.SortedKeys(p.ImportMap) {
			if f, ok := exports[p.ImportMap[alias]]; ok && exports[alias] == "" {
				exports[alias] = f
			}
		}
	}
	return exports
}

// Load lists, parses, and type-checks every non-test package matched by
// the patterns (relative to dir), returning them ready for CheckAll.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	for _, p := range listed {
		if p.Error != nil && !p.DepOnly {
			return nil, fmt.Errorf("lint: loading %s: %s", p.ImportPath, p.Error.Err)
		}
	}
	// The lint fixtures under internal/lint/testdata are deliberate
	// violations, analyzed by the fixture tests under assumed import paths;
	// a wildcard pattern like ./... must not surface them as repo findings.
	// A pattern that names a testdata path explicitly is a request to
	// analyze it (useful for eyeballing a fixture's findings), so the skip
	// applies only when no pattern mentions testdata itself.
	keepTestdata := false
	for _, pat := range patterns {
		if underTestdata(pat) {
			keepTestdata = true
			break
		}
	}

	exports := exportLookup(listed)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})

	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		if !keepTestdata && underTestdata(p.ImportPath) {
			continue
		}
		pkg, err := typecheck(fset, imp, p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// typecheck parses and type-checks one listed package from source.
func typecheck(fset *token.FileSet, imp types.Importer, p *listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(p.GoFiles))
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", p.ImportPath, err)
	}
	return &Package{Path: p.ImportPath, Fset: fset, Files: files, Info: info}, nil
}

// underTestdata reports whether the import path has a testdata path
// element (such packages are Go-tool-invisible fixtures, not real code).
func underTestdata(importPath string) bool {
	for _, seg := range strings.Split(importPath, "/") {
		if seg == "testdata" {
			return true
		}
	}
	return false
}

// Run loads every package matched by the patterns and checks them together
// (one cross-package call graph), returning all findings in deterministic
// order.
func Run(dir string, patterns []string) ([]Finding, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	return CheckAll(pkgs), nil
}
