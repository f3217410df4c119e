package analysis

import (
	"go/ast"
	"go/types"
)

// rngstreamPackages are the estimator/build/repair/sweep packages where
// every randomness stream must be replayable from the engine seed.
var rngstreamPackages = []string{
	"internal/rrindex",
	"internal/sampling",
	"internal/bestfirst",
	"internal/tic",
	"internal/datasets",
	"internal/experiments",
	"analytics",
	"pitex", // the root engine package
}

// RngStream enforces seed hygiene: rng.New seeds must be propagated
// values or rng.Mix derivations — a literal seed silently correlates
// streams the estimator's unbiasedness assumes independent, and a
// package-level source shares one stream across goroutines and call
// sites. math/rand is banned outright in these packages (it cannot be
// split deterministically per worker).
var RngStream = &Analyzer{
	Name: "rngstream",
	Doc: "rng.New seeds must derive from propagated seeds or rng.Mix; " +
		"no literal seeds, package-level sources, or math/rand in sampling code",
	AppliesTo: func(pkgPath string) bool { return pathIn(pkgPath, rngstreamPackages...) },
	Run:       runRngStream,
}

func runRngStream(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch {
			case isFuncNamed(fn, "internal/rng", "New"):
				if len(call.Args) != 1 {
					return true
				}
				arg := call.Args[0]
				if tv, ok := pass.Info.Types[arg]; ok && tv.Value != nil {
					pass.Reportf(arg.Pos(),
						"rng.New with constant seed: derive the stream from the engine seed via rng.Mix")
					return true
				}
				if obj := rootIdentObj(pass.Info, arg); obj != nil {
					if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
						pass.Reportf(arg.Pos(),
							"rng.New seeded from package-level %q: streams must be propagated, not shared", v.Name())
					}
				}
			case fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2":
				if fn.Type().(*types.Signature).Recv() == nil {
					pass.Reportf(call.Pos(),
						"math/rand.%s in sampling code: use internal/rng (splittable, replayable streams)", fn.Name())
				}
			}
			return true
		})
	}
}

// rootIdentObj resolves the leftmost identifier of a simple seed
// expression (x, x.y, x+1, x^c) to its object, or nil for anything more
// structured.
func rootIdentObj(info *types.Info, expr ast.Expr) types.Object {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return rootIdentObj(info, e.X)
	case *ast.BinaryExpr:
		if obj := rootIdentObj(info, e.X); obj != nil {
			return obj
		}
		return rootIdentObj(info, e.Y)
	}
	return nil
}
