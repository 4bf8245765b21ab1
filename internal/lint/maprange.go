package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Maprange flags `range` over a map whose loop body is order-sensitive.
//
// Go randomises map iteration order per run, so any loop body that
// *publishes* its iteration order — scheduling events, sending messages or
// on channels, drawing RNG values, appending to a slice, building a string,
// writing to a stream, returning the first entry that matches — makes the
// run irreproducible. A network broadcast that sent in map order was this
// bug class's first specimen. The analyzer recognises the two sanctioned
// idioms: iterate a sorted key slice instead of the map, or append map
// keys/values and sort the slice later in the same function.
// Bodies that only fold into commutative accumulators (counters, sums,
// max/min, other maps) are inherently order-insensitive and never flagged.
// Sites where unordered iteration is provably fine carry a justified
// //lint:maporder annotation.
var Maprange = &Analyzer{
	Name: "maprange",
	Doc:  "flag range over a map whose body is order-sensitive (schedules, sends, appends, draws RNG, builds output, returns an entry) unless keys are sorted",
	Run:  runMaprange,
}

// orderPublishingMethods are method names that commit an ordering to the
// simulation or the network the moment they are called.
var orderPublishingMethods = map[string]bool{
	"ScheduleArgAt": true,
	"ScheduleArgIn": true,
	"Send":          true,
	"Post":          true,
}

// drawReceivers maps the generator types whose every method call consumes
// stream state to the name a finding gives them.
var drawReceivers = map[string]string{
	"math/rand.Rand":          "rand.Rand",
	"math/rand/v2.Rand":       "rand.Rand",
	"repro/internal/sim.Rand": "sim.Rand",
}

// builderWriteMethods are the ordered-output methods of strings.Builder and
// bytes.Buffer.
var builderWriteMethods = map[string]bool{
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Write":       true,
}

// sortFuncs recognises the standard sorting entry points; a later call to
// one of these on an appended-to slice makes the append order irrelevant.
var sortFuncs = map[string]bool{
	"sort.Strings":          true,
	"sort.Ints":             true,
	"sort.Float64s":         true,
	"sort.Slice":            true,
	"sort.SliceStable":      true,
	"sort.Sort":             true,
	"sort.Stable":           true,
	"slices.Sort":           true,
	"slices.SortFunc":       true,
	"slices.SortStableFunc": true,
}

func runMaprange(pass *Pass) error {
	for _, f := range pass.Pkg.Files {
		inspectStack(f, func(n ast.Node, stack []ast.Node) {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return
			}
			tv, ok := pass.Pkg.Info.Types[rng.X]
			if !ok {
				return
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return
			}
			// The innermost enclosing function bounds the sorted-later
			// search.
			var encl ast.Node
			for i := len(stack) - 1; i >= 0; i-- {
				switch stack[i].(type) {
				case *ast.FuncDecl, *ast.FuncLit:
					encl = stack[i]
				}
				if encl != nil {
					break
				}
			}
			if reason := orderSensitive(pass, rng, encl); reason != "" {
				pass.Reportf(rng.Pos(),
					"range over map %s with an order-sensitive body (%s); iterate sorted keys, sort the result afterwards, or annotate with //lint:maporder <why>",
					types.ExprString(rng.X), reason)
			}
		})
	}
	return nil
}

// orderSensitive scans the loop body for an operation that publishes the
// iteration order, returning a description of the first one found ("" when
// the body is order-insensitive).
func orderSensitive(pass *Pass, rng *ast.RangeStmt, encl ast.Node) string {
	info := pass.Pkg.Info
	var reason string
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			reason = "sends on a channel"

		case *ast.CallExpr:
			// Event scheduling / message sending methods.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if orderPublishingMethods[sel.Sel.Name] && methodRecvType(info, n) != nil {
					reason = fmt.Sprintf("calls %s, committing event order", sel.Sel.Name)
					return false
				}
				// RNG draws: each call consumes stream state in iteration
				// order.
				if name := drawReceivers[namedTypePath(methodRecvType(info, n))]; name != "" {
					reason = fmt.Sprintf("draws from a *%s (%s)", name, sel.Sel.Name)
					return false
				}
				// Ordered writes into an outer strings.Builder/bytes.Buffer.
				if builderWriteMethods[sel.Sel.Name] {
					if obj := rootObj(info, sel.X); obj != nil && !objDeclaredWithin(obj, rng) {
						switch namedTypePath(methodRecvType(info, n)) {
						case "strings.Builder", "bytes.Buffer":
							reason = fmt.Sprintf("writes to %s in iteration order", obj.Name())
							return false
						}
					}
				}
			}
			// append(outer, ...) — unless the slice is sorted later in the
			// same function.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				if obj := rootObj(info, n.Args[0]); obj != nil && !objDeclaredWithin(obj, rng) {
					if !sortedAfter(info, encl, rng, obj) {
						reason = fmt.Sprintf("appends to %s in iteration order", obj.Name())
						return false
					}
				}
			}
			// Ordered output through fmt.Fprint*.
			if path, name, ok := pkgFunc(info, n.Fun); ok && path == "fmt" && strings.HasPrefix(name, "Fprint") {
				reason = fmt.Sprintf("writes output via fmt.%s in iteration order", name)
				return false
			}

		case *ast.AssignStmt:
			// String accumulation: s += ... / s = s + ... onto an outer
			// variable. Numeric accumulation commutes; strings don't.
			if len(n.Lhs) == 1 && (n.Tok == token.ADD_ASSIGN || n.Tok == token.ASSIGN) {
				obj := rootObj(info, n.Lhs[0])
				if obj == nil || objDeclaredWithin(obj, rng) || !isStringType(obj.Type()) {
					return true
				}
				if n.Tok == token.ADD_ASSIGN {
					reason = fmt.Sprintf("concatenates onto string %s in iteration order", obj.Name())
					return false
				}
				if b, ok := n.Rhs[0].(*ast.BinaryExpr); ok && b.Op == token.ADD {
					reason = fmt.Sprintf("concatenates onto string %s in iteration order", obj.Name())
					return false
				}
			}
		}
		return true
	})
	if reason == "" {
		reason = returnsEntry(info, rng)
	}
	return reason
}

// returnsEntry reports a return in the loop body, outside any function
// literal (which returns from the literal), whose results use a variable
// declared in the loop: the function then answers with whichever entry the
// iteration reaches first.
func returnsEntry(info *types.Info, rng *ast.RangeStmt) (reason string) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			ast.Inspect(ret, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && reason == "" && objDeclaredWithin(info.Uses[id], rng) {
					reason = fmt.Sprintf("returns %s, the first entry the iteration reaches", id.Name)
				}
				return reason == ""
			})
		}
		_, lit := n.(*ast.FuncLit)
		return reason == "" && !lit
	})
	return reason
}

// rootObj resolves the base identifier of expr (x, x.f, &x, x[i]) to its
// object.
func rootObj(info *types.Info, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			return info.Uses[e]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.UnaryExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		default:
			return nil
		}
	}
}

// sortedAfter reports whether, later in the enclosing function than the
// range loop, a standard sort call mentions obj — the append-then-sort
// idiom that neutralises map iteration order.
func sortedAfter(info *types.Info, encl ast.Node, rng *ast.RangeStmt, obj types.Object) bool {
	if encl == nil {
		return false
	}
	found := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= rng.End() {
			// Keep descending: a node starting before the loop's end can
			// still contain later calls.
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		path, name, ok := pkgFunc(info, call.Fun)
		if !ok || !sortFuncs[path+"."+name] {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && info.Uses[id] == obj {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
