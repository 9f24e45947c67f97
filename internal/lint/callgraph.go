package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// funcInfo ties one declared function body to the package that owns it, so
// the hot-path closure can walk bodies across package boundaries.
type funcInfo struct {
	pkg  *Package
	file *ast.File
	decl *ast.FuncDecl
	obj  *types.Func
}

// funcIndex keys every function declaration with a body, across all loaded
// packages, by types.Func.FullName(). Pointer identity of *types.Func does
// not survive the package boundary — each package is type-checked
// separately and sees its dependencies through export data, so the same
// method is a distinct object in every importing package — but FullName
// (e.g. "(*repro/internal/dram.Bank).hammer") is stable, and export data
// includes unexported methods of exported types.
type funcIndex map[string]*funcInfo

func buildFuncIndex(pkgs []*Package) funcIndex {
	idx := funcIndex{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				idx[obj.FullName()] = &funcInfo{pkg: pkg, file: file, decl: fd, obj: obj}
			}
		}
	}
	return idx
}

// calleeOf resolves the statically called function or method of a call
// expression, or nil for builtins, function-typed values, and conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// callees returns the FullNames of every function the body statically
// calls, sorted and deduplicated for a deterministic traversal order.
// Interface method calls resolve to the abstract interface method, which
// has no body and therefore no index entry, so dynamic dispatch drops out
// of the graph by construction: hot leaf implementations reached through an
// interface (core's paTable.Count and sepTable.Count, behind core.Table)
// carry their own //twicelint:hotpath annotation instead. Function literals
// nested in the body need no edge — their statements are part of this body
// and are walked in place.
func (fi *funcInfo) callees() []string {
	seen := map[string]bool{}
	ast.Inspect(fi.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := calleeOf(fi.pkg.Info, call); fn != nil {
			seen[fn.FullName()] = true
		}
		return true
	})
	out := make([]string, 0, len(seen))
	//twicelint:ordered sorted immediately below
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// hotFunc is one member of the hot closure: a declared function plus the
// annotated root whose transitive calls pulled it in (the first such root
// in deterministic BFS order — used for diagnostics only).
type hotFunc struct {
	fi   *funcInfo
	root string
}

// hotClosure walks the static call graph breadth-first from the annotated
// roots and returns every reachable declared function exactly once. Calls
// that resolve to functions outside the index (standard library, export
// data without source) are not traversed: their bodies are not loaded. The
// allocation checks special-case the known-allocating ones (fmt) at the
// call site instead.
func hotClosure(idx funcIndex, roots []*funcInfo) []hotFunc {
	sorted := append([]*funcInfo(nil), roots...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].obj.FullName() < sorted[j].obj.FullName()
	})
	type item struct{ name, root string }
	visited := map[string]bool{}
	var queue []item
	for _, r := range sorted {
		name := r.obj.FullName()
		if !visited[name] {
			visited[name] = true
			queue = append(queue, item{name: name, root: name})
		}
	}
	var out []hotFunc
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		fi := idx[it.name]
		if fi == nil {
			continue
		}
		out = append(out, hotFunc{fi: fi, root: it.root})
		for _, callee := range fi.callees() {
			if !visited[callee] {
				visited[callee] = true
				queue = append(queue, item{name: callee, root: it.root})
			}
		}
	}
	return out
}
