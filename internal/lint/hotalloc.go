package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Hotalloc enforces the lazy-trace and closure-free contracts inside
// `//xchain:hotpath` functions.
//
// The muted kernel, network, ledger and metrics paths are allocation-free
// (PR 2's AllocsPerRun regressions, PR 6's muted-handle benchmarks), which
// holds only as long as nobody formats eagerly: every fmt.Sprintf, string
// concatenation or trace append on a hot path must sit behind a Recording()
// guard so a muted run never pays for building labels it will throw away.
// The analyzer recognises both guard spellings used in the tree — calling
// <trace>.Recording() directly in the if condition, and branching on a bool
// previously assigned from a Recording() call. Code inside a function
// literal is exempt: lazy label callbacks run only when a trace is live.
//
// fmt.Errorf stays allowed: constructing an error is a result the caller
// demanded, not observability overhead, and it only occurs off the
// straight-line success path.
//
// The same functions may not hand the engine a capturing function literal:
// `eng.ScheduleIn(d, name, func() { ... p ... })` allocates one closure per
// scheduled action, which is what ScheduleArgIn with a package-level action
// and the process as its argument exists to avoid. The same goes for a local
// clock's ScheduleAtLocal and ScheduleAfterLocal, which wrap it (and have
// ScheduleArg variants too). A literal that captures nothing is a static
// function value and stays allowed.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "in //xchain:hotpath functions, require Recording() guards around eager formatting, string concatenation and trace appends, and forbid capturing closures passed to Engine.ScheduleIn/ScheduleAt and Clock.ScheduleAtLocal/ScheduleAfterLocal",
	Run:  runHotalloc,
}

// HotpathDirective marks a function as a muted hot path.
const HotpathDirective = "//xchain:hotpath"

// eagerFmtFuncs are the fmt entry points that format eagerly into a fresh
// allocation.
var eagerFmtFuncs = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
	"Appendf":  true,
}

// traceAppendMethods are the trace.Trace methods that record an event; on a
// hot path even the lazy variants must be guarded, since building their
// label closure allocates whether or not the trace is live.
var traceAppendMethods = map[string]bool{
	"Add":          true,
	"AddValue":     true,
	"AddLazy":      true,
	"AddValueLazy": true,
	"Append":       true,
}

// closureScheduleMethods are the sim.Engine and clock.Clock methods that
// take the action as a func(), by receiver type: a capturing literal there
// is one allocation per event.
var closureScheduleMethods = map[string]string{
	"ScheduleIn":         "Engine",
	"ScheduleAt":         "Engine",
	"ScheduleAtLocal":    "Clock",
	"ScheduleAfterLocal": "Clock",
}

func runHotalloc(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, HotpathDirective) {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

// checkHotFunc walks one hot function's body, flagging unguarded eager
// work.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.Pkg.Info
	recVars := recordingVars(info, fd.Body)

	var stack []ast.Node
	var walk func(n ast.Node)
	walk = func(root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			switch n := n.(type) {
			case *ast.CallExpr:
				if path, name, ok := pkgFunc(info, n.Fun); ok && path == "fmt" && eagerFmtFuncs[name] {
					if !isGuarded(info, recVars, stack, n) {
						pass.Reportf(n.Pos(),
							"eager fmt.%s in hot path %s not guarded by Recording(); muted runs must not pay for formatting",
							name, fd.Name.Name)
					}
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && traceAppendMethods[sel.Sel.Name] {
					if recv := methodRecvType(info, n); typeNameIs(recv, "Trace") {
						if !isGuarded(info, recVars, stack, n) {
							pass.Reportf(n.Pos(),
								"trace %s in hot path %s not guarded by Recording(); wrap in `if <trace>.Recording() { ... }`",
								sel.Sel.Name, fd.Name.Name)
						}
					}
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && closureScheduleMethods[sel.Sel.Name] != "" {
					if recv := methodRecvType(info, n); typeNameIs(recv, closureScheduleMethods[sel.Sel.Name]) {
						for _, arg := range n.Args {
							if lit, ok := arg.(*ast.FuncLit); ok && captures(info, lit) && !isGuarded(info, recVars, stack, n) {
								pass.Reportf(lit.Pos(),
									"capturing closure passed to %s in hot path %s allocates per event; use ScheduleArg%s with a package-level action",
									sel.Sel.Name, fd.Name.Name, sel.Sel.Name[len("Schedule"):])
							}
						}
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && isStringType(exprType(info, n)) && !isConstant(info, n) {
					if !isGuarded(info, recVars, stack, n) {
						pass.Reportf(n.Pos(),
							"string concatenation in hot path %s not guarded by Recording()",
							fd.Name.Name)
					}
					// One report per concatenation chain is enough.
					stack = append(stack, n)
					return false
				}
			}
			stack = append(stack, n)
			return true
		})
	}
	stack = stack[:0]
	walk(fd.Body)
}

// captures reports whether lit uses a variable declared outside it in an
// enclosing function: what turns a function literal from a static value
// into a heap-allocated closure.
func captures(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return true
		}
		found = v.Pos() < lit.Pos() || v.Pos() >= lit.End()
		return !found
	})
	return found
}

// recordingVars collects the objects of boolean variables assigned from a
// .Recording() call anywhere in body (`recording := tr.Recording()`).
func recordingVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Recording" {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					out[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// isGuarded reports whether node n (with ancestor stack) sits inside the
// body of an if statement whose condition tests Recording() (directly or
// via a bound bool), or inside a function literal (lazy evaluation).
func isGuarded(info *types.Info, recVars map[types.Object]bool, stack []ast.Node, n ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.FuncLit:
			return true
		case *ast.IfStmt:
			// Only the branch bodies are guarded, not the condition
			// expression itself.
			inBody := anc.Body != nil && n.Pos() >= anc.Body.Pos() && n.End() <= anc.Body.End()
			if !inBody {
				continue
			}
			if condTestsRecording(info, recVars, anc.Cond) {
				return true
			}
		}
	}
	return false
}

// condTestsRecording reports whether the condition contains an unnegated
// Recording() call or recording-bound variable.
func condTestsRecording(info *types.Info, recVars map[types.Object]bool, cond ast.Expr) bool {
	switch e := cond.(type) {
	case *ast.ParenExpr:
		return condTestsRecording(info, recVars, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return false
		}
		return condTestsRecording(info, recVars, e.X)
	case *ast.BinaryExpr:
		if e.Op == token.LAND || e.Op == token.LOR {
			return condTestsRecording(info, recVars, e.X) || condTestsRecording(info, recVars, e.Y)
		}
		return false
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "Recording"
	case *ast.Ident:
		return recVars[info.Uses[e]]
	}
	return false
}

// typeNameIs reports whether t (deref'd) is a named type with the given
// name, in any package — matching by name keeps the analyzer testable
// against fixture types.
func typeNameIs(t types.Type, name string) bool {
	p := namedTypePath(t)
	return p == name || len(p) > len(name)+1 && p[len(p)-len(name)-1] == '.' && p[len(p)-len(name):] == name
}

// exprType returns the type of e, or nil.
func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isConstant reports whether e folds to a compile-time constant.
func isConstant(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}
