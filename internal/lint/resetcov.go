package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Rule resetcoverage: a Reset or Clear method must account for every field
// of its receiver struct. The machine-reuse path runs entire experiment
// grids on recycled components, and its byte-identity guarantee (a recycled
// machine serializes identically to a fresh one) holds only if no field
// silently survives a reset. A field that is intentionally preserved —
// configuration, identity, machine-owned attachments — must say so with
// //twicelint:keep <why> on the field declaration.
//
// A field counts as covered when the method (case-insensitively named
// "reset" or "clear", so an unexported reset or clear helper is held to the
// same rule as an exported Reset) contains any of:
//
//   - an assignment, IncDec, or compound assignment whose left-hand side is
//     rooted at recv.field (through any chain of index, slice, star, and
//     selector steps, so `r.gauges[i].samples = …` covers gauges);
//   - a delegated call recv.field.Reset() / recv.field[i].Clear();
//   - clear(recv.field) or copy(recv.field, …);
//   - a range over recv.field whose value variable is reset in the body
//     (`for _, b := range d.banks { b.Reset() }` or per-field assignments
//     on the range value).

// isResetName matches Reset/Clear method names case-insensitively.
func isResetName(name string) bool {
	l := strings.ToLower(name)
	return l == "reset" || l == "clear"
}

// checkResetCoverage runs the resetcoverage rule over one package.
func (c *checker) checkResetCoverage() {
	type structInfo struct {
		st   *ast.StructType
		file *ast.File
	}
	structs := map[string]structInfo{}
	for _, f := range c.pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					structs[ts.Name.Name] = structInfo{st: st, file: f}
				}
			}
		}
	}
	for _, f := range c.pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !isResetName(fd.Name.Name) {
				continue
			}
			if fd.Type.Params.NumFields() != 0 {
				continue // Reset(to X) style reinitializers take arguments; out of scope
			}
			recvName, typeName := recvInfo(fd)
			si, ok := structs[typeName]
			if !ok {
				continue
			}
			c.checkResetMethod(fd, recvName, si.st, c.fileDirs[si.file])
		}
	}
}

// recvInfo extracts the receiver variable name (empty if unnamed) and the
// receiver's type name, stripping pointerness.
func recvInfo(fd *ast.FuncDecl) (recvName, typeName string) {
	field := fd.Recv.List[0]
	if len(field.Names) == 1 {
		recvName = field.Names[0].Name
	}
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		typeName = id.Name
	}
	return recvName, typeName
}

// checkResetMethod reports every struct field the method neither resets nor
// keeps.
func (c *checker) checkResetMethod(fd *ast.FuncDecl, recvName string, st *ast.StructType, structDirs *directives) {
	covered := map[string]bool{}
	collectResetCoverage(fd.Body, recvName, covered)
	for _, field := range st.Fields.List {
		names := fieldNames(field)
		for _, name := range names {
			if name == "_" || covered[name] {
				continue
			}
			if structDirs.forField(c.pkg.Fset, field, dirKeep) != nil {
				continue
			}
			c.report(fd.Pos(), RuleResetCoverage,
				"%s.%s does not reassign field %s; reused instances would leak state across runs — reset it or annotate the field //twicelint:keep <why>",
				recvTypeString(fd), fd.Name.Name, name)
		}
	}
}

// fieldNames returns the declared names of a struct field, or the type's
// base name for an embedded field.
func fieldNames(field *ast.Field) []string {
	if len(field.Names) > 0 {
		out := make([]string, len(field.Names))
		for i, n := range field.Names {
			out[i] = n.Name
		}
		return out
	}
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch t := t.(type) {
	case *ast.Ident:
		return []string{t.Name}
	case *ast.SelectorExpr:
		return []string{t.Sel.Name}
	}
	return nil
}

func recvTypeString(fd *ast.FuncDecl) string {
	return exprString(fd.Recv.List[0].Type)
}

// collectResetCoverage walks the method body recording which receiver
// fields are reset.
func collectResetCoverage(body *ast.BlockStmt, recvName string, covered map[string]bool) {
	if recvName == "" {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if f := fieldRoot(l, recvName); f != "" {
					covered[f] = true
				}
			}
		case *ast.IncDecStmt:
			if f := fieldRoot(n.X, recvName); f != "" {
				covered[f] = true
			}
		case *ast.CallExpr:
			markResetCall(n, recvName, covered)
		case *ast.RangeStmt:
			f := fieldRoot(n.X, recvName)
			if f == "" {
				return true
			}
			v, ok := n.Value.(*ast.Ident)
			if !ok || v.Name == "_" {
				return true
			}
			if rangeValueReset(n.Body, v.Name) {
				covered[f] = true
			}
		}
		return true
	})
}

// markResetCall records coverage from call statements: delegated
// recv.field.Reset()-style calls, clear(recv.field), copy(recv.field, …).
func markResetCall(call *ast.CallExpr, recvName string, covered map[string]bool) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if isResetName(fun.Sel.Name) {
			if f := fieldRoot(fun.X, recvName); f != "" {
				covered[f] = true
			}
		}
	case *ast.Ident:
		if (fun.Name == "clear" || fun.Name == "copy") && len(call.Args) > 0 {
			if f := fieldRoot(call.Args[0], recvName); f != "" {
				covered[f] = true
			}
		}
	}
}

// rangeValueReset reports whether the range body resets its value variable:
// a Reset/Clear call on it or an assignment rooted at one of its fields.
func rangeValueReset(body *ast.BlockStmt, valName string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				if fieldRoot(l, valName) != "" {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok && isResetName(sel.Sel.Name) {
				if id, ok := unparen(sel.X).(*ast.Ident); ok && id.Name == valName {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// fieldRoot resolves the receiver field an expression is rooted at:
// recv.f, recv.f[i], recv.f[i].g, *recv.f, recv.f[a][b].g all root at f.
// Returns "" when the expression is not rooted at the receiver.
func fieldRoot(e ast.Expr, recvName string) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && id.Name == recvName {
				return x.Sel.Name
			}
			e = x.X
		default:
			return ""
		}
	}
}
