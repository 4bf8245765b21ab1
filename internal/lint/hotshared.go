package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Hotshared keeps `//xchain:hotpath` functions from writing atomics the whole
// process shares.
//
// An atomic write to a value reached from a package-level variable writes
// one cache line every goroutine of the process writes: on many cores each
// write waits for the line to come back from the core that wrote it last.
// Traffic workers each verify a payment's signatures on a world of their
// own, and an add to a process-wide verification counter per signature cost
// more than the verification it counted. A hot path adds to a cell of its
// own instead — a stripe or a shard held by what it works on — and leaves
// the sum to the readers. Loads stay allowed: a line read everywhere and
// written rarely is shared without cost.
var Hotshared = &Analyzer{
	Name: "hotshared",
	Doc:  "in //xchain:hotpath functions, forbid Add, Store, Swap, CompareAndSwap, And and Or on a sync/atomic value reached from a package-level variable",
	Run:  runHotshared,
}

// atomicWrites are the sync/atomic operations that write, as methods of its
// types and as prefixes of its functions (AddInt64, CompareAndSwapPointer, …).
var atomicWrites = []string{"Add", "Store", "Swap", "CompareAndSwap", "And", "Or"}

func runHotshared(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, HotpathDirective) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				op, target := atomicWrite(info, call)
				if target == nil {
					return true
				}
				if v := packageVarRoot(info, target); v != nil {
					pass.Reportf(call.Pos(),
						"hot path %s writes a process-wide atomic (%s on %s, reached from package-level %s); add to a stripe or shard of its own",
						fd.Name.Name, op, types.ExprString(target), v.Name())
				}
				return true
			})
		}
	}
	return nil
}

// atomicWrite returns the operation and the value a call writes through
// sync/atomic — the receiver of a method of its types, or the address a
// function of the package is handed — or a nil target if it writes none.
func atomicWrite(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	if path, name, ok := pkgFunc(info, call.Fun); ok {
		if path == "sync/atomic" && len(call.Args) > 0 && isAtomicWrite(name, true) {
			return name, call.Args[0]
		}
		return "", nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal || s.Obj().Pkg() == nil || s.Obj().Pkg().Path() != "sync/atomic" {
		return "", nil
	}
	if !isAtomicWrite(sel.Sel.Name, false) {
		return "", nil
	}
	return sel.Sel.Name, sel.X
}

// isAtomicWrite reports whether name is a writing operation: exactly one of
// atomicWrites for a method, one followed by the operand's type for a
// function.
func isAtomicWrite(name string, function bool) bool {
	for _, w := range atomicWrites {
		if name == w || function && strings.HasPrefix(name, w) && len(name) > len(w) {
			return true
		}
	}
	return false
}

// packageVarRoot returns the package-level variable e is reached from —
// through fields, indexes, dereferences and address-of — or nil if e starts
// anywhere else (a parameter, a local, a call's result).
func packageVarRoot(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
					e = x.Sel // another package's variable
					continue
				}
			}
			e = x.X
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
				return nil
			}
			return v
		default:
			return nil
		}
	}
}
