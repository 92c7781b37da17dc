// Package simtimemix flags direct conversions between time.Duration
// and sim.Time.
//
// Both types are int64 nanosecond counts, so sim.Time(d) and
// time.Duration(t) compile and even "work" — which is exactly how
// wall-clock quantities leak into the virtual clock unnoticed (sim.Time
// is a distinct type precisely so the compiler rejects arithmetic
// mixing the two). Crossings must go through the declared, greppable
// helpers sim.FromDuration and sim.Time.AsDuration, which pin the unit
// contract in one audited place. The sim package itself (where the
// helpers live) is exempt; anything else is flagged unless waived with
// //biscuitvet:ignore simtimemix: <reason>.
package simtimemix

import (
	"go/ast"
	"go/types"

	"biscuit/internal/analysis/framework"
)

const simPath = "biscuit/internal/sim"

// Analyzer is the simtimemix check.
var Analyzer = &framework.Analyzer{
	Name: "simtimemix",
	Doc:  "flag direct conversions between time.Duration and sim.Time; use sim.FromDuration / Time.AsDuration",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if framework.PkgPath(pass.Pkg) == simPath {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			// A conversion is a call whose operand is a type.
			tv, ok := pass.TypesInfo.Types[call.Fun]
			if !ok || !tv.IsType() {
				return true
			}
			dst := tv.Type
			src := pass.TypesInfo.Types[call.Args[0]].Type
			if src == nil {
				return true
			}
			if isNamed(dst, "time", "Duration") && isNamed(src, simPath, "Time") {
				pass.Reportf(call.Pos(), "direct time.Duration(sim.Time) conversion mixes virtual and wall-clock time; use sim.Time.AsDuration (suppress with %s)", pass.Directive())
			}
			if isNamed(dst, simPath, "Time") && isNamed(src, "time", "Duration") {
				pass.Reportf(call.Pos(), "direct sim.Time(time.Duration) conversion mixes wall-clock and virtual time; use sim.FromDuration (suppress with %s)", pass.Directive())
			}
			return true
		})
	}
	return nil
}

// isNamed reports whether t is the named type pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}
