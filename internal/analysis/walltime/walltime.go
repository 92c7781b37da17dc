// Package walltime forbids reading the wall clock in simulation code.
//
// Every experiment in this repository is reproduced on the virtual
// clock of internal/sim; a single time.Now or time.Sleep in a package
// that participates in the simulation silently couples results to host
// speed and destroys bit-for-bit reproducibility. The analyzer flags
// calls to wall-clock functions of package time in any package that
// directly imports biscuit/internal/sim. Host-side CLIs that
// legitimately need the wall clock (progress display, real timeouts)
// waive the check with a //biscuitvet:ignore walltime: <reason> comment
// on the line, the line above, or in the file header.
package walltime

import (
	"go/ast"

	"biscuit/internal/analysis/framework"
)

// simPath is the package whose importers must stay on virtual time.
const simPath = "biscuit/internal/sim"

// forbidden are the package-level time functions that read or wait on
// the wall clock. Pure value constructors (time.Date, time.Unix,
// time.ParseDuration, ...) stay legal.
var forbidden = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Analyzer is the walltime check.
var Analyzer = &framework.Analyzer{
	Name: "walltime",
	Doc:  "forbid wall-clock time functions in packages that import " + simPath,
	Run:  run,
}

func run(pass *framework.Pass) error {
	if framework.PkgPath(pass.Pkg) == simPath || !framework.ImportsPath(pass.Files, simPath) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := framework.FuncFor(pass.TypesInfo, call.Fun)
			if fn == nil || !framework.IsPkgFunc(fn, "time") || !forbidden[fn.Name()] {
				return true
			}
			if pass.InTestFile(call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(), "time.%s reads the wall clock in a simulation package (virtual time only; suppress with %s)", fn.Name(), pass.Directive())
			return true
		})
	}
	return nil
}
