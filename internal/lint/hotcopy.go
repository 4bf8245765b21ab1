package lint

import (
	"go/ast"
	"go/types"
)

// Hotcopy keeps wide structs from being copied on `//xchain:hotpath`
// functions' way in.
//
// A struct passed by value is copied at every call: as a receiver, a
// parameter, or the receiver of a value method the function calls. For a
// wide struct that is a runtime.duffcopy per call, and a hot path calls it
// per message or per property — which is how a 184-byte core.Scenario, read
// for one map lookup per FaultOf, grew to a tenth of a payment's CPU. Above
// hotcopyMaxBytes the analyzer asks for a pointer instead. Sizes are the gc
// compiler's on amd64, the reference platform.
var Hotcopy = &Analyzer{
	Name: "hotcopy",
	Doc:  "in //xchain:hotpath functions, forbid receivers and parameters of struct types wider than 128 bytes passed by value, and calls to value-receiver methods of such types",
	Run:  runHotcopy,
}

// hotcopyMaxBytes is the widest struct a hot path may take by value.
const hotcopyMaxBytes = 128

var hotcopySizes = types.SizesFor("gc", "amd64")

func runHotcopy(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasDirective(fd.Doc, HotpathDirective) {
				continue
			}
			for _, list := range []*ast.FieldList{fd.Recv, fd.Type.Params} {
				if list == nil {
					continue
				}
				for _, field := range list.List {
					if size, wide := wideStruct(info.TypeOf(field.Type)); wide {
						pass.Reportf(field.Pos(),
							"hot path %s takes %s (%d bytes) by value; pass a pointer",
							fd.Name.Name, types.ExprString(field.Type), size)
					}
				}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s, ok := info.Selections[sel]
				if !ok || s.Kind() != types.MethodVal {
					return true
				}
				recv := s.Obj().Type().(*types.Signature).Recv().Type()
				if size, wide := wideStruct(recv); wide {
					pass.Reportf(call.Pos(),
						"hot path %s calls value-receiver method %s of %s (%d bytes), which copies it; give the method a pointer receiver",
						fd.Name.Name, sel.Sel.Name, types.TypeString(recv, types.RelativeTo(pass.Pkg.Types)), size)
				}
				return true
			})
		}
	}
	return nil
}

// wideStruct reports whether t is a struct type, by value, wider than
// hotcopyMaxBytes, and its size.
func wideStruct(t types.Type) (int64, bool) {
	if t == nil {
		return 0, false
	}
	if _, ok := t.Underlying().(*types.Struct); !ok {
		return 0, false
	}
	size := hotcopySizes.Sizeof(t)
	return size, size > hotcopyMaxBytes
}
