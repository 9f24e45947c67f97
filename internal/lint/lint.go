// Package lint implements twicelint, a stdlib-only static analyzer that
// enforces the determinism and hygiene invariants the TWiCe reproduction
// depends on. The paper's security claim (no row exceeds thRH undetected)
// and its §4.4 table-size bound are only reproducible when the
// simulator is bit-for-bit deterministic, so the analyzer rejects the Go
// constructs that silently break that property:
//
//   - maprange: `for … range` over a map in any package, unless the loop
//     body is provably order-insensitive or the site carries a
//     //twicelint:ordered directive asserting sorted/handled ordering.
//   - nondeterm: use of the unseeded global math/rand source or of
//     wall-clock time (time.Now / time.Since / time.Until) under internal/;
//     only rand.New(rand.NewSource(seed)) instances are allowed.
//   - droppederr: call statements (including defer/go) that discard an
//     error result outside tests.
//   - truncconv: integer conversions that can truncate or overflow
//     row/address arithmetic, unless the operand is masked/bounded or the
//     site carries a //twicelint:checked directive.
//
// On top of the per-file hygiene rules, three cross-cutting rules enforce
// the performance contracts of the per-ACT kernel statically (see
// DESIGN.md §12):
//
//   - hotpath: functions annotated //twicelint:hotpath, and everything they
//     transitively call through the static call graph, must be
//     allocation-free; //twicelint:allocok <why> exempts one line.
//   - probeguard: every probe.Recorder method call must be dominated by a
//     nil guard on its receiver expression, preserving the zero-overhead
//     detached-telemetry contract.
//   - resetcoverage: every Reset/Clear method must reassign each field of
//     its receiver struct, or the field must carry //twicelint:keep <why>;
//     machine-reuse byte-identity depends on it.
//   - directive: twicelint directives themselves must be well-formed —
//     known name, rationale present, attached to the right node.
//
// When the load contains a main package, the whole-program deadexport rule
// reports exported internal/ functions no non-test code references.
//
// The analyzer uses only go/ast, go/parser, go/token, and go/types.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Rule identifiers, as printed in diagnostics.
const (
	RuleMapRange      = "maprange"
	RuleNondeterm     = "nondeterm"
	RuleDroppedErr    = "droppederr"
	RuleTruncConv     = "truncconv"
	RuleHotPath       = "hotpath"
	RuleProbeGuard    = "probeguard"
	RuleResetCoverage = "resetcoverage"
	RuleDirective     = "directive"
	RuleDeadExport    = "deadexport"
)

// Finding is one diagnostic.
type Finding struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Message)
}

// Rule scopes, matched as substrings of a package path. The maprange,
// droppederr, directive, probeguard and resetcoverage rules apply to every
// package; nondeterm, truncconv and deadexport only to internalScope.
// exemptPackage is skipped by every rule: detutil hosts the one sanctioned
// raw map iteration behind its sorting barrier.
const (
	internalScope = "internal/"
	exemptPackage = "internal/detutil"
)

// Package is one type-checked, non-test package ready for analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the checker needs populated.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// CheckAll runs every rule over the loaded packages and returns the
// findings sorted by position. The per-file rules (maprange, nondeterm,
// droppederr, truncconv, directive, probeguard) and the per-package
// resetcoverage rule skip exemptPackage; the hotpath rule builds one
// static call graph spanning every loaded package, so a hot root in one
// package is followed into the bodies it calls anywhere else in the load;
// the deadexport rule collects references from every loaded package.
func CheckAll(pkgs []*Package) []Finding {
	var all []Finding
	var roots []*funcInfo
	dirsByFile := map[*ast.File]*directives{}
	idx := buildFuncIndex(pkgs)

	for _, pkg := range pkgs {
		c := &checker{
			pkg:      pkg,
			internal: strings.Contains(pkg.Path, internalScope),
			fileDirs: map[*ast.File]*directives{},
		}
		for _, f := range pkg.Files {
			d := collectDirectives(pkg.Fset, f)
			c.fileDirs[f] = d
			dirsByFile[f] = d
		}
		// Hot roots are collected from every package, exempt or not: the
		// exemption spares a package hygiene findings, not participation in
		// the call graph.
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if c.fileDirs[f].forFunc(pkg.Fset, fd, dirHotPath) == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					if fi := idx[obj.FullName()]; fi != nil {
						roots = append(roots, fi)
					}
				}
			}
		}
		if strings.Contains(pkg.Path, exemptPackage) {
			continue
		}
		for _, f := range pkg.Files {
			c.dirs = c.fileDirs[f]
			c.file(f)
			c.checkDirectives(f)
			c.checkProbeGuards(f)
		}
		c.checkResetCoverage()
		all = append(all, c.findings...)
	}

	for _, hf := range hotClosure(idx, roots) {
		fi := hf.fi
		checkHotFunc(hf, dirsByFile[fi.file], func(pos token.Pos, format string, args ...any) {
			all = append(all, Finding{
				Pos:     fi.pkg.Fset.Position(pos),
				Rule:    RuleHotPath,
				Message: fmt.Sprintf(format, args...),
			})
		})
	}

	all = append(all, checkDeadExports(pkgs, dirsByFile)...)

	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return all
}

type checker struct {
	pkg      *Package
	internal bool
	fileDirs map[*ast.File]*directives
	dirs     *directives
	findings []Finding
}

func (c *checker) report(pos token.Pos, rule, format string, args ...any) {
	c.findings = append(c.findings, Finding{
		Pos:     c.pkg.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

func (c *checker) file(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			c.checkRange(n)
		case *ast.CallExpr:
			c.checkCall(n)
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				c.checkDiscard(call, "")
			}
		case *ast.DeferStmt:
			c.checkDiscard(n.Call, "deferred ")
		case *ast.GoStmt:
			c.checkDiscard(n.Call, "spawned ")
		}
		return true
	})
}

// ---- rule: maprange ----

func (c *checker) checkRange(rs *ast.RangeStmt) {
	t := c.typeOf(rs.X)
	if t == nil || !isMap(t) {
		return
	}
	line := c.pkg.Fset.Position(rs.For).Line
	if c.dirs.has(line, dirOrdered) {
		return
	}
	if c.orderInsensitive(rs) {
		return
	}
	c.report(rs.For, RuleMapRange,
		"nondeterministic iteration over map %s; iterate detutil.SortedKeys(%s) or annotate the loop with //twicelint:ordered",
		exprString(rs.X), exprString(rs.X))
}

// orderInsensitive reports whether every statement in the loop body is a
// commutative accumulation whose result cannot depend on visit order. The
// analysis is deliberately conservative: integer +=/|=/&=/^=/*=/++/--,
// map writes keyed by the range key, idempotent constant stores into the
// range value, and delete(m, key) qualify; anything else (appends, float
// accumulation, I/O, calls) does not.
func (c *checker) orderInsensitive(rs *ast.RangeStmt) bool {
	keyObj := c.identObj(rs.Key)
	valObj := c.identObj(rs.Value)
	for _, st := range rs.Body.List {
		if !c.orderInsensitiveStmt(st, keyObj, valObj) {
			return false
		}
	}
	return true
}

func (c *checker) orderInsensitiveStmt(st ast.Stmt, keyObj, valObj types.Object) bool {
	switch st := st.(type) {
	case *ast.IncDecStmt:
		return c.isInteger(st.X) && !c.hasCall(st.X)
	case *ast.AssignStmt:
		if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
			return false
		}
		lhs, rhs := st.Lhs[0], st.Rhs[0]
		switch st.Tok {
		case token.ADD_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN, token.MUL_ASSIGN:
			// Commutative-associative only over integers: float addition
			// is order-sensitive.
			return c.isInteger(lhs) && !c.hasCall(lhs) && !c.hasCall(rhs)
		case token.ASSIGN:
			ix, ok := lhs.(*ast.IndexExpr)
			if !ok {
				return false
			}
			// m2[key] = v: each iteration writes a distinct key of the
			// destination map.
			if t := c.typeOf(ix.X); t != nil && isMap(t) && c.isObj(ix.Index, keyObj) {
				return !c.hasCall(rhs)
			}
			// value[i] = <literal>: idempotent store into per-entry state.
			if valObj != nil && c.isObj(ix.X, valObj) {
				_, lit := rhs.(*ast.BasicLit)
				return lit && !c.hasCall(ix.Index)
			}
			return false
		}
		return false
	case *ast.ExprStmt:
		call, ok := st.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok {
			return false
		}
		if b, ok := c.pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
			return len(call.Args) == 2 && c.isObj(call.Args[1], keyObj)
		}
		return false
	}
	return false
}

// ---- rules: nondeterm + truncconv (both anchored on CallExpr) ----

func (c *checker) checkCall(call *ast.CallExpr) {
	if tv, ok := c.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(call)
		return
	}
	if !c.internal {
		return
	}
	fn := calleeOf(c.pkg.Info, call)
	if fn == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil || fn.Pkg() == nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			return // constructing a seeded instance is the sanctioned path
		}
		c.report(call.Pos(), RuleNondeterm,
			"%s.%s draws from the unseeded global source; use a rand.New(rand.NewSource(seed)) instance threaded from the run configuration",
			fn.Pkg().Path(), fn.Name())
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			c.report(call.Pos(), RuleNondeterm,
				"time.%s reads the wall clock, which is nondeterministic; derive timestamps from the simulated clock",
				fn.Name())
		}
	}
}

// integer widths assuming 64-bit int/uint/uintptr: the repository targets
// amd64 and the analyzer must itself be deterministic across hosts.
func intWidth(b *types.Basic) int {
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	default:
		return 64
	}
}

func isUnsigned(b *types.Basic) bool { return b.Info()&types.IsUnsigned != 0 }

func (c *checker) checkConversion(call *ast.CallExpr) {
	if !c.internal || len(call.Args) != 1 {
		return
	}
	arg := unparen(call.Args[0])
	if tv, ok := c.pkg.Info.Types[arg]; ok && tv.Value != nil {
		return // constant conversions are compile-checked
	}
	dst := basicInt(c.typeOf(call.Fun))
	src := basicInt(c.typeOf(arg))
	if dst == nil || src == nil {
		return
	}
	dw, sw := intWidth(dst), intWidth(src)
	narrowing := dw < sw
	signFlip := dw == sw && isUnsigned(src) && !isUnsigned(dst)
	if !narrowing && !signFlip {
		return
	}
	line := c.pkg.Fset.Position(call.Pos()).Line
	if c.dirs.has(line, dirChecked) {
		return
	}
	if c.boundedExpr(arg, dst, dw) {
		return
	}
	what := "can truncate"
	if signFlip {
		what = "can overflow to a negative value in"
	}
	c.report(call.Pos(), RuleTruncConv,
		"conversion from %s to %s %s row/address arithmetic; mask or bound the operand, or annotate //twicelint:checked",
		types.TypeString(c.typeOf(arg), nil), types.TypeString(c.typeOf(call.Fun), nil), what)
}

// boundedExpr reports whether the operand is syntactically guaranteed to
// fit the destination: masked by a constant that fits, reduced modulo a
// constant that fits, or (for unsigned operands) shifted right far enough.
func (c *checker) boundedExpr(e ast.Expr, dst *types.Basic, dw int) bool {
	be, ok := unparen(e).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	maxFit := uint64(1)<<uint(dw) - 1
	if !isUnsigned(dst) {
		maxFit = uint64(1)<<uint(dw-1) - 1
	}
	constVal := func(x ast.Expr) (uint64, bool) {
		tv, ok := c.pkg.Info.Types[x]
		if !ok || tv.Value == nil {
			return 0, false
		}
		u, exact := constUint64(tv)
		return u, exact
	}
	switch be.Op {
	case token.AND:
		if v, ok := constVal(be.X); ok && v <= maxFit {
			return true
		}
		if v, ok := constVal(be.Y); ok && v <= maxFit {
			return true
		}
	case token.REM:
		if v, ok := constVal(be.Y); ok && v > 0 && v-1 <= maxFit {
			return true
		}
		// x % uint64(len(s)): the remainder is < len(s) ≤ MaxInt64, which
		// fits any 64-bit destination.
		if dw == 64 && c.isLenConversion(be.Y) {
			return true
		}
	case token.SHR:
		srcB := basicInt(c.typeOf(be.X))
		if srcB != nil && isUnsigned(srcB) {
			if k, ok := constVal(be.Y); ok && k < 64 && intWidth(srcB)-int(k&63) <= dw {
				return true
			}
		}
	}
	return false
}

// isLenConversion matches an unsigned conversion of a len() result.
func (c *checker) isLenConversion(e ast.Expr) bool {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	tv, ok := c.pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	inner, ok := unparen(call.Args[0]).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := unparen(inner.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := c.pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "len"
}

// ---- rule: droppederr ----

// errDiscardAllowed lists callees (by types.Func.FullName prefix) whose
// error results may be discarded: printing to the std streams and the
// never-failing in-memory writers.
var errDiscardAllowed = []string{
	"fmt.Print",
	"fmt.Fprint",
	"(*strings.Builder).",
	"(*bytes.Buffer).",
}

func (c *checker) checkDiscard(call *ast.CallExpr, how string) {
	if tv, ok := c.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	fn := calleeOf(c.pkg.Info, call)
	if fn == nil {
		return // builtins and fuzzy calls
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !returnsError(sig) {
		return
	}
	name := fn.FullName()
	for _, allowed := range errDiscardAllowed {
		if strings.HasPrefix(name, allowed) {
			return
		}
	}
	c.report(call.Pos(), RuleDroppedErr,
		"%scall to %s discards its error result; handle it or assign it explicitly",
		how, name)
}

func returnsError(sig *types.Signature) bool {
	errType := types.Universe.Lookup("error").Type()
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errType) {
			return true
		}
	}
	return false
}

// ---- shared helpers ----

func (c *checker) typeOf(e ast.Expr) types.Type {
	if e == nil {
		return nil
	}
	return c.pkg.Info.TypeOf(e)
}

func (c *checker) identObj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return c.pkg.Info.ObjectOf(id)
}

func (c *checker) isObj(e ast.Expr, obj types.Object) bool {
	return obj != nil && c.identObj(e) == obj
}

func (c *checker) isInteger(e ast.Expr) bool {
	return basicInt(c.typeOf(e)) != nil
}

// hasCall reports whether the expression contains a function call, other
// than type conversions and the pure builtins len/cap.
func (c *checker) hasCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if tv, ok := c.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
			return true
		}
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := c.pkg.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
				return true
			}
		}
		found = true
		return false
	})
	return found
}

func basicInt(t types.Type) *types.Basic {
	if t == nil {
		return nil
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 {
		return nil
	}
	return b
}

func isMap(t types.Type) bool {
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
