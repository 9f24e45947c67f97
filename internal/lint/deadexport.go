package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Rule deadexport: an exported function, or an exported method of an
// exported type, declared under internal/ must be referenced by a loaded
// package outside its own body. Test files are not loaded, so a function
// only tests call moves into its package's export_test.go, goes, or carries
// //twicelint:keep <caller>. Calls through an interface never reach
// Info.Uses, so a method is exempt when its type satisfies an interface the
// program can pass it through: one declared in the load, a parameter type
// of a called function, error, or fmt.Stringer. A load without a main
// package has no roots, so the rule does not run on it.

// methodSig is a method's name and its parameter and result types rendered
// by import path: type identity does not survive the package boundary, the
// rendering does.
type methodSig struct{ name, sig string }

func sigOf(fn *types.Func) methodSig {
	sig := fn.Type().(*types.Signature)
	var b strings.Builder
	if sig.Variadic() {
		b.WriteString("...")
	}
	for _, tup := range [2]*types.Tuple{sig.Params(), sig.Results()} {
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), (*types.Package).Path) + ",")
		}
		b.WriteString(";")
	}
	return methodSig{fn.Name(), b.String()}
}

// checkDeadExports runs the deadexport rule over the whole load.
func checkDeadExports(pkgs []*Package, dirsByFile map[*ast.File]*directives) []Finding {
	used, hasMain := map[string]bool{}, false
	var ifaces [][]methodSig
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		ms := make([]methodSig, it.NumMethods())
		for i := range ms {
			ms[i] = sigOf(it.Method(i))
		}
		ifaces = append(ifaces, ms)
	}
	addIface(types.Universe.Lookup("error").Type())
	str := types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Typ[types.String]))
	addIface(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String",
		types.NewSignatureType(nil, nil, nil, nil, str, false))}, nil))

	for _, pkg := range pkgs {
		hasMain = hasMain || pkg.Files[0].Name.Name == "main"
		info := pkg.Info
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				self := ""
				if fd, ok := decl.(*ast.FuncDecl); ok && info.Defs[fd.Name] != nil {
					self = info.Defs[fd.Name].(*types.Func).FullName()
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						if fn, ok := info.Uses[n].(*types.Func); ok && fn.Origin().FullName() != self {
							used[fn.Origin().FullName()] = true
						}
					case *ast.TypeSpec:
						addIface(info.TypeOf(n.Name))
					case *ast.CallExpr:
						if sig, ok := info.TypeOf(n.Fun).(*types.Signature); ok {
							for i := 0; i < sig.Params().Len(); i++ {
								addIface(sig.Params().At(i).Type())
							}
						}
					}
					return true
				})
			}
		}
	}
	if !hasMain {
		return nil
	}

	// satisfies reports whether the type implements a collected interface
	// that declares the method.
	satisfies := func(named *types.Named, fn *types.Func) bool {
		have := map[methodSig]bool{}
		mset := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < mset.Len(); i++ {
			have[sigOf(mset.At(i).Obj().(*types.Func))] = true
		}
		want := sigOf(fn)
		for _, ms := range ifaces {
			declares, all := false, true
			for _, m := range ms {
				declares, all = declares || m == want, all && have[m]
			}
			if declares && all {
				return true
			}
		}
		return false
	}

	var out []Finding
	for _, pkg := range pkgs {
		if !strings.Contains(pkg.Path, internalScope) || strings.Contains(pkg.Path, exemptPackage) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || dirsByFile[f].forFunc(pkg.Fset, fd, dirKeep) != nil {
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				if used[fn.FullName()] {
					continue
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					t := recv.Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					if named, ok := t.(*types.Named); !ok || !named.Obj().Exported() || satisfies(named, fn) {
						continue
					}
				}
				out = append(out, Finding{Pos: pkg.Fset.Position(fd.Name.Pos()), Rule: RuleDeadExport, Message: fn.FullName() +
					" is exported but has no caller outside tests; delete it, move it into the package's export_test.go, or annotate //twicelint:keep <caller>"})
			}
		}
	}
	return out
}
