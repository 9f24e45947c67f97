package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Rule probeguard: every call to a probe.Recorder method must be dominated
// by a nil guard on the receiver expression. The recorder attachment
// contract (internal/probe package doc) puts the entire detached cost at
// one branch — `if probes != nil { probes.ACT(...) }` — and the Recorder
// methods assume a non-nil receiver in exchange. One unguarded call site is
// a nil-pointer panic on every detached run, so the rule is enforced
// everywhere, not only under internal/.
//
// The analysis is a syntactic domination walk over each function body,
// tracking the set of expressions known non-nil (keyed by their printed
// form, e.g. "t.probes"):
//
//   - `if E != nil { ... }` guards E inside the body (&&-conjuncts count);
//   - `if E == nil { return }` (or any terminating body; ||-disjuncts
//     count) guards E for the rest of the block;
//   - a variable assigned from probe.NewRecorder(...) or &Recorder{...} is
//     non-nil until reassigned (a method named NewRecorder, like
//     Collector.NewRecorder, may return nil and does not count);
//   - inside a Recorder method, the receiver itself is non-nil by the
//     package contract.

// isRecorderType reports whether t (after pointer indirection) is a named
// type Recorder declared in a probe package. Matching the path by substring
// keeps the fixture packages (analyzed under assumed paths) in scope
// alongside the real repro/internal/probe.
func isRecorderType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != "Recorder" || obj.Pkg() == nil {
		return false
	}
	return strings.Contains(obj.Pkg().Path(), "probe")
}

// guardSet is the set of expressions (by printed form) currently known to
// be non-nil recorders.
type guardSet map[string]bool

func (g guardSet) clone() guardSet {
	out := make(guardSet, len(g))
	for k := range g {
		out[k] = true
	}
	return out
}

// checkProbeGuards runs the probeguard rule over one file.
func (c *checker) checkProbeGuards(f *ast.File) {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		guards := guardSet{}
		if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
			if isRecorderType(c.typeOf(fd.Recv.List[0].Type)) {
				guards[fd.Recv.List[0].Names[0].Name] = true
			}
		}
		c.guardBlock(fd.Body, guards)
	}
}

// guardBlock walks the block's statements in order, threading the guard set
// through assignments and terminating nil checks.
func (c *checker) guardBlock(b *ast.BlockStmt, guards guardSet) {
	for _, st := range b.List {
		c.guardStmt(st, guards)
	}
}

// guardStmt checks the Recorder calls contained in one statement under the
// current guard set and updates the set for the statements that follow.
func (c *checker) guardStmt(st ast.Stmt, guards guardSet) {
	switch st := st.(type) {
	case *ast.IfStmt:
		if st.Init != nil {
			c.guardStmt(st.Init, guards)
		}
		c.guardExpr(st.Cond, guards)
		body := guards.clone()
		for _, e := range nilCheckedExprs(c, st.Cond, token.NEQ, token.LAND) {
			body[e] = true
		}
		c.guardBlock(st.Body, body)
		if st.Else != nil {
			c.guardStmt(st.Else, guards.clone())
		}
		if terminates(st.Body) {
			for _, e := range nilCheckedExprs(c, st.Cond, token.EQL, token.LOR) {
				guards[e] = true
			}
		}
	case *ast.BlockStmt:
		c.guardBlock(st, guards.clone())
	case *ast.ForStmt:
		inner := guards.clone()
		if st.Init != nil {
			c.guardStmt(st.Init, inner)
		}
		if st.Cond != nil {
			c.guardExpr(st.Cond, inner)
		}
		c.guardBlock(st.Body, inner)
		if st.Post != nil {
			c.guardStmt(st.Post, inner)
		}
	case *ast.RangeStmt:
		c.guardExpr(st.X, guards)
		c.guardBlock(st.Body, guards.clone())
	case *ast.SwitchStmt:
		inner := guards.clone()
		if st.Init != nil {
			c.guardStmt(st.Init, inner)
		}
		if st.Tag != nil {
			c.guardExpr(st.Tag, inner)
		}
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				body := inner.clone()
				for _, e := range cc.List {
					c.guardExpr(e, body)
				}
				for _, s := range cc.Body {
					c.guardStmt(s, body)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		inner := guards.clone()
		if st.Init != nil {
			c.guardStmt(st.Init, inner)
		}
		c.guardStmt(st.Assign, inner)
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				body := inner.clone()
				for _, s := range cc.Body {
					c.guardStmt(s, body)
				}
			}
		}
	case *ast.SelectStmt:
		for _, cl := range st.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				body := guards.clone()
				if cc.Comm != nil {
					c.guardStmt(cc.Comm, body)
				}
				for _, s := range cc.Body {
					c.guardStmt(s, body)
				}
			}
		}
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			c.guardExpr(e, guards)
		}
		for _, l := range st.Lhs {
			c.guardExpr(l, guards)
		}
		for i, l := range st.Lhs {
			key := exprString(unparen(l))
			if key == "" || key == "_" {
				continue
			}
			if len(st.Lhs) == len(st.Rhs) && c.recorderConstructed(st.Rhs[i]) {
				guards[key] = true
			} else {
				delete(guards, key)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						c.guardExpr(vs.Values[i], guards)
						if c.recorderConstructed(vs.Values[i]) {
							guards[name.Name] = true
						}
					}
				}
			}
		}
	case *ast.ExprStmt:
		c.guardExpr(st.X, guards)
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			c.guardExpr(e, guards)
		}
	case *ast.DeferStmt:
		c.guardExpr(st.Call, guards)
	case *ast.GoStmt:
		c.guardExpr(st.Call, guards)
	case *ast.IncDecStmt:
		c.guardExpr(st.X, guards)
	case *ast.SendStmt:
		c.guardExpr(st.Chan, guards)
		c.guardExpr(st.Value, guards)
	case *ast.LabeledStmt:
		c.guardStmt(st.Stmt, guards)
	}
}

// guardExpr checks every Recorder method call within one expression tree.
// Function literals are analyzed as nested bodies under the guard set at
// their creation point.
func (c *checker) guardExpr(e ast.Expr, guards guardSet) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			c.guardBlock(n.Body, guards.clone())
			return false
		case *ast.CallExpr:
			sel, ok := unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if _, isMethod := c.pkg.Info.Selections[sel]; !isMethod {
				return true
			}
			if !isRecorderType(c.typeOf(sel.X)) {
				return true
			}
			key := exprString(unparen(sel.X))
			if !guards[key] {
				c.report(n.Pos(), RuleProbeGuard,
					"call to Recorder method %s.%s is not dominated by a nil guard; wrap it in `if %s != nil { … }` (probe attachment contract)",
					key, sel.Sel.Name, key)
			}
		}
		return true
	})
}

// nilCheckedExprs returns the printed forms of every Recorder-typed
// expression compared against nil with the given operator, descending
// through the given logical connector (&& for positive guards, || for
// early-exit guards).
func nilCheckedExprs(c *checker, cond ast.Expr, op, connector token.Token) []string {
	var out []string
	var visit func(e ast.Expr)
	visit = func(e ast.Expr) {
		be, ok := unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		if be.Op == connector {
			visit(be.X)
			visit(be.Y)
			return
		}
		if be.Op != op {
			return
		}
		for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
			expr, other := pair[0], pair[1]
			if tv, ok := c.pkg.Info.Types[other]; !ok || !tv.IsNil() {
				continue
			}
			if isRecorderType(c.typeOf(expr)) {
				out = append(out, exprString(unparen(expr)))
			}
			break
		}
	}
	visit(cond)
	return out
}

// recorderConstructed reports whether the expression is a freshly
// constructed, necessarily non-nil recorder: a call to a package-level
// NewRecorder function in a probe package, or &Recorder{...}.
func (c *checker) recorderConstructed(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.CallExpr:
		fn := calleeOf(c.pkg.Info, e)
		if fn == nil || fn.Name() != "NewRecorder" || fn.Pkg() == nil {
			return false
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return false
		}
		return strings.Contains(fn.Pkg().Path(), "probe")
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		cl, ok := unparen(e.X).(*ast.CompositeLit)
		if !ok {
			return false
		}
		return isRecorderType(c.typeOf(cl))
	}
	return false
}

// terminates reports whether the block always transfers control away from
// the statement that follows it: it ends in return, a branch (break,
// continue, goto), or a panic call.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}
