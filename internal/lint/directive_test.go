package lint_test

import (
	"go/ast"
	"go/parser"
	"go/types"
	"strings"
	"testing"

	"repro/internal/lint"
)

// loadSource parses and type-checks one in-memory file under the given
// import path, resolving its imports through imp.
func loadSource(t *testing.T, imp types.Importer, asPath, src string) (*lint.Package, *types.Package) {
	t.Helper()
	fset, _ := fixtureImporter()
	f, err := parser.ParseFile(fset, "src.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing: %v", err)
	}
	info := lint.NewInfo()
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
	tp, err := conf.Check(asPath, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("type-checking: %v", err)
	}
	return &lint.Package{Path: asPath, Fset: fset, Files: []*ast.File{f}, Info: info}, tp
}

// checkSource analyzes one in-memory file under the given import path — the
// harness for cases a golden fixture cannot express (a rationale-free
// directive cannot share its line with a want annotation, and CRLF endings
// would not survive the repository's text tooling).
func checkSource(t *testing.T, asPath, src string) []lint.Finding {
	t.Helper()
	_, imp := fixtureImporter()
	pkg, _ := loadSource(t, imp, asPath, src)
	return lint.CheckAll([]*lint.Package{pkg})
}

// findingsMatching filters by rule and message substring.
func findingsMatching(fs []lint.Finding, rule, sub string) []lint.Finding {
	var out []lint.Finding
	for _, f := range fs {
		if f.Rule == rule && strings.Contains(f.Message, sub) {
			out = append(out, f)
		}
	}
	return out
}

func TestDirectiveUnknownName(t *testing.T) {
	fs := checkSource(t, "repro/internal/sim/d", `package d

//twicelint:hotpth typo of hotpath, must be reported rather than ignored
func F() {}
`)
	got := findingsMatching(fs, lint.RuleDirective, `unknown twicelint directive "hotpth"`)
	if len(got) != 1 {
		t.Fatalf("want 1 unknown-directive finding, got %d in %v", len(got), fs)
	}
	if !strings.Contains(got[0].Message, "allocok, checked, hotpath, keep, ordered") {
		t.Errorf("diagnostic should list the vocabulary: %s", got[0].Message)
	}
}

func TestDirectiveMissingRationale(t *testing.T) {
	fs := checkSource(t, "repro/internal/sim/d", `package d

//twicelint:hotpath
func F() {}
`)
	got := findingsMatching(fs, lint.RuleDirective, "requires a rationale")
	if len(got) != 1 {
		t.Fatalf("want 1 missing-rationale finding, got %d in %v", len(got), fs)
	}
	// A rationale of pure whitespace is still missing.
	fs = checkSource(t, "repro/internal/sim/d", "package d\n\n//twicelint:hotpath \t \nfunc G() {}\n")
	if got := findingsMatching(fs, lint.RuleDirective, "requires a rationale"); len(got) != 1 {
		t.Fatalf("whitespace rationale: want 1 finding, got %d in %v", len(got), fs)
	}
}

func TestDirectiveWrongNode(t *testing.T) {
	fs := checkSource(t, "repro/internal/sim/d", `package d

//twicelint:hotpath attached to a const, not a function
const n = 1

func F(m map[int]int) {
	//twicelint:keep attached to a loop, not a struct field
	for range m {
	}
}
`)
	if got := findingsMatching(fs, lint.RuleDirective, "must be attached to a function declaration"); len(got) != 1 {
		t.Errorf("want 1 hotpath-attachment finding, got %d in %v", len(got), fs)
	}
	if got := findingsMatching(fs, lint.RuleDirective, "keep must be attached to a struct field or a function declaration"); len(got) != 1 {
		t.Errorf("want 1 keep-attachment finding, got %d in %v", len(got), fs)
	}
}

// TestDirectiveCRLF pins the carriage-return handling: in a CRLF file the
// directive name and rationale must not absorb the trailing \r, so the
// directive still validates cleanly and still suppresses its rule.
func TestDirectiveCRLF(t *testing.T) {
	src := strings.Join([]string{
		"package d",
		"",
		"func F(m map[int]int) int {",
		"\tn := 0",
		"\t//twicelint:ordered fixture: pretend the consumer handles ordering",
		"\tfor k := range m {",
		"\t\tn = n*31 + k",
		"\t}",
		"\treturn n",
		"}",
		"",
	}, "\r\n")
	fs := checkSource(t, "repro/internal/sim/d", src)
	if len(fs) != 0 {
		t.Fatalf("CRLF directive should validate and suppress; got %v", fs)
	}

	// Rationale-free under CRLF: the \r alone is not a rationale.
	src = "package d\r\n\r\n//twicelint:hotpath\r\nfunc G() {}\r\n"
	fs = checkSource(t, "repro/internal/sim/d", src)
	got := findingsMatching(fs, lint.RuleDirective, "requires a rationale")
	if len(got) != 1 {
		t.Fatalf("CRLF missing rationale: want 1 finding, got %d in %v", len(got), fs)
	}
	if strings.Contains(got[0].Message, "\r") {
		t.Errorf("diagnostic leaked a carriage return: %q", got[0].Message)
	}
}
