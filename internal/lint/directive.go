package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Directive names. A directive is a `//twicelint:<name> <rationale>` comment
// placed on the flagged line or on the line immediately above it; hotpath
// attaches to a function declaration and keep to a struct field or a
// function declaration. Every directive requires a rationale — a suppression
// without a recorded reason is itself a finding (rule "directive").
const (
	// dirOrdered asserts that a map iteration's order is handled: either
	// the keys are sorted before use or the consumer is order-agnostic in
	// a way the conservative analysis cannot prove.
	dirOrdered = "ordered"
	// dirChecked asserts that a narrowing integer conversion is guarded
	// by a bound the analysis cannot see.
	dirChecked = "checked"
	// dirHotPath marks a function as an allocation-free hot-path root:
	// the function and everything it statically calls must not allocate
	// (rule "hotpath").
	dirHotPath = "hotpath"
	// dirAllocOK exempts one line inside the hot closure from the
	// allocation rules: a cold error path, an amortized append, a
	// non-escaping closure.
	dirAllocOK = "allocok"
	// dirKeep exempts one struct field from Reset/Clear coverage
	// (rule "resetcoverage"): configuration, identity, or state that is
	// intentionally preserved across reuse. On a function declaration it
	// exempts the function from rule "deadexport" and names its caller.
	dirKeep = "keep"
)

// knownDirectives is the full vocabulary, sorted, for diagnostics.
var knownDirectives = []string{dirAllocOK, dirChecked, dirHotPath, dirKeep, dirOrdered}

func isKnownDirective(name string) bool {
	for _, k := range knownDirectives {
		if name == k {
			return true
		}
	}
	return false
}

// directive is one parsed //twicelint: comment occurrence.
type directive struct {
	name      string
	rationale string
	pos       token.Pos
	line      int
}

// directives indexes every twicelint directive of one file by source line.
type directives struct {
	byLine map[int][]directive
	list   []directive
}

// at returns the named directive applying at the line — written on the line
// itself (trailing comment) or on the line immediately above — or nil.
func (d *directives) at(line int, name string) *directive {
	if d == nil {
		return nil
	}
	for _, l := range [2]int{line, line - 1} {
		occs := d.byLine[l]
		for i := range occs {
			if occs[i].name == name {
				return &occs[i]
			}
		}
	}
	return nil
}

// has reports whether the named directive applies at the line.
func (d *directives) has(line int, name string) bool {
	return d.at(line, name) != nil
}

// forFunc returns the named directive attached to the function declaration:
// anywhere in its doc comment, or on the line of (or immediately above) the
// func keyword.
func (d *directives) forFunc(fset *token.FileSet, fd *ast.FuncDecl, name string) *directive {
	if d == nil {
		return nil
	}
	if fd.Doc != nil {
		start := fset.Position(fd.Doc.Pos()).Line
		end := fset.Position(fd.Doc.End()).Line
		for l := start; l <= end; l++ {
			occs := d.byLine[l]
			for i := range occs {
				if occs[i].name == name {
					return &occs[i]
				}
			}
		}
	}
	return d.at(fset.Position(fd.Pos()).Line, name)
}

// forField returns the named directive attached to the struct field: in its
// doc comment, its trailing comment, or on the field's line or the line
// above.
func (d *directives) forField(fset *token.FileSet, field *ast.Field, name string) *directive {
	if d == nil {
		return nil
	}
	for _, cg := range [2]*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		start := fset.Position(cg.Pos()).Line
		end := fset.Position(cg.End()).Line
		for l := start; l <= end; l++ {
			occs := d.byLine[l]
			for i := range occs {
				if occs[i].name == name {
					return &occs[i]
				}
			}
		}
	}
	return d.at(fset.Position(field.Pos()).Line, name)
}

const directivePrefix = "//twicelint:"

// collectDirectives scans every comment in the file for twicelint
// directives. Directive comments follow the Go convention for machine
// directives: no space after //, so gofmt leaves them alone. The name ends
// at the first space or tab; the remainder of the line is the rationale.
// A trailing carriage return (CRLF source) is stripped so it can corrupt
// neither the name nor the rationale.
func collectDirectives(fset *token.FileSet, f *ast.File) *directives {
	d := &directives{byLine: map[int][]directive{}}
	for _, cg := range f.Comments {
		for _, cmt := range cg.List {
			text := strings.TrimSuffix(cmt.Text, "\r")
			if !strings.HasPrefix(text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(text, directivePrefix)
			name, rationale := rest, ""
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				name, rationale = rest[:i], strings.TrimSpace(rest[i+1:])
			}
			occ := directive{
				name:      name,
				rationale: rationale,
				pos:       cmt.Pos(),
				line:      fset.Position(cmt.Pos()).Line,
			}
			d.byLine[occ.line] = append(d.byLine[occ.line], occ)
			d.list = append(d.list, occ)
		}
	}
	return d
}

// checkDirectives validates every twicelint directive in the file: the name
// must be known, the rationale is mandatory, and the node-bound directives
// (hotpath, keep) must be attached to the right kind of node. Typos in
// directives silently disable a suppression — or, worse, silently fail to
// mark a hot path — so they are findings, not no-ops.
func (c *checker) checkDirectives(f *ast.File) {
	funcLines, fieldLines := directiveAnchors(c.pkg.Fset, f)
	for _, occ := range c.dirs.list {
		if !isKnownDirective(occ.name) {
			c.report(occ.pos, RuleDirective,
				"unknown twicelint directive %q; known directives: %s",
				occ.name, strings.Join(knownDirectives, ", "))
			continue
		}
		if occ.rationale == "" {
			c.report(occ.pos, RuleDirective,
				"//twicelint:%s requires a rationale: //twicelint:%s <why>",
				occ.name, occ.name)
		}
		switch occ.name {
		case dirHotPath:
			if !funcLines[occ.line] {
				c.report(occ.pos, RuleDirective,
					"//twicelint:hotpath must be attached to a function declaration")
			}
		case dirKeep:
			if !fieldLines[occ.line] && !funcLines[occ.line] {
				c.report(occ.pos, RuleDirective,
					"//twicelint:keep must be attached to a struct field or a function declaration")
			}
		}
	}
}

// directiveAnchors returns the sets of source lines on which a directive is
// attached to a function declaration and to a struct field, respectively.
func directiveAnchors(fset *token.FileSet, f *ast.File) (funcLines, fieldLines map[int]bool) {
	funcLines = map[int]bool{}
	fieldLines = map[int]bool{}
	mark := func(set map[int]bool, cg *ast.CommentGroup) {
		if cg == nil {
			return
		}
		start := fset.Position(cg.Pos()).Line
		end := fset.Position(cg.End()).Line
		for l := start; l <= end; l++ {
			set[l] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			mark(funcLines, n.Doc)
			line := fset.Position(n.Pos()).Line
			funcLines[line] = true
			funcLines[line-1] = true
		case *ast.StructType:
			if n.Fields == nil {
				return true
			}
			for _, field := range n.Fields.List {
				mark(fieldLines, field.Doc)
				mark(fieldLines, field.Comment)
				line := fset.Position(field.Pos()).Line
				fieldLines[line] = true
				fieldLines[line-1] = true
			}
		}
		return true
	})
	return funcLines, fieldLines
}

// exprString renders an expression for diagnostics.
func exprString(e ast.Expr) string { return types.ExprString(e) }

// constUint64 extracts a constant's value as a uint64 where exact.
func constUint64(tv types.TypeAndValue) (uint64, bool) {
	v := constant.ToInt(tv.Value)
	if v.Kind() != constant.Int {
		return 0, false
	}
	return constant.Uint64Val(v)
}
