package lint

import (
	"go/ast"
)

// Globalrand forbids nondeterministic randomness in deterministic packages.
//
// All randomness must flow from a seeded *sim.Rand (the engine's RNG or a
// splitmix64 side stream as in traffic.FaultPlan): the process-global
// math/rand source is seeded per-process, and crypto/rand is entropy by
// definition, so either one makes a run irreproducible. A seeded generator
// comes from sim.NewRand, which draws math/rand's stream without paying its
// 607-word seeding, so rand.New and rand.NewSource are refused outside
// internal/sim too.
var Globalrand = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid package-global math/rand and any crypto/rand in deterministic packages; randomness must come from a seeded *sim.Rand",
	Run:  runGlobalrand,
}

// globalrandConstructors are the math/rand names that build seeded
// generators rather than drawing from the global source.
var globalrandConstructors = map[string]bool{
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
	// Types and interfaces referenced in declarations.
	"Rand":     true,
	"Source":   true,
	"Source64": true,
	"Zipf":     true,
	"PCG":      true,
	"ChaCha8":  true,
}

func runGlobalrand(pass *Pass) error {
	if !IsDeterministicPkg(pass.Pkg.ImportPath) {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		// crypto/rand is out wholesale: importing it at all means entropy.
		for _, imp := range f.Imports {
			if imp.Path.Value == `"crypto/rand"` {
				pass.Reportf(imp.Pos(),
					"crypto/rand imported in deterministic package %s; entropy makes runs irreproducible — derive key material from the scenario seed instead",
					pass.Pkg.ImportPath)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			path, name, ok := pkgFunc(pass.Pkg.Info, sel)
			if !ok || (path != "math/rand" && path != "math/rand/v2") {
				return true
			}
			if globalrandConstructors[name] {
				return true
			}
			if name == "New" || name == "NewSource" {
				if pass.Pkg.ImportPath != "repro/internal/sim" {
					pass.Reportf(sel.Pos(),
						"rand.%s builds a generator in deterministic package %s; seed one with sim.NewRand instead",
						name, pass.Pkg.ImportPath)
				}
				return true
			}
			pass.Reportf(sel.Pos(),
				"rand.%s draws from the process-global source in deterministic package %s; draw from a seeded *sim.Rand instead",
				name, pass.Pkg.ImportPath)
			return true
		})
	}
	return nil
}
