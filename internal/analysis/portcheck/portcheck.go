// Package portcheck flags discarded status results from the port and
// device-file APIs.
//
// Biscuit's inter-SSDlet ports are bounded queues whose Put/Get return
// a bool ("false" means the peer closed or the application is being
// torn down), and the device file system's APIs return errors for
// out-of-space and out-of-range conditions. Dropping either status on
// the floor turns a clean shutdown or a full device into silent data
// loss, so a call to one of these APIs used as a bare statement (or
// under go/defer) is flagged. An explicit `_ =` assignment is treated
// as a deliberate, reviewable discard and stays legal, as does
// suppression via //biscuitvet:ignore portcheck: <reason>.
package portcheck

import (
	"go/ast"
	"go/types"

	"biscuit/internal/analysis/framework"
)

// watched are the packages whose status returns must be consumed: the
// raw queue layer, the device file system, the SSDlet runtime's port
// endpoints, and the public host-side wrappers.
var watched = map[string]bool{
	"biscuit/internal/ports": true,
	"biscuit/internal/isfs":  true,
	"biscuit/internal/core":  true,
	"biscuit":                true,
}

// Analyzer is the portcheck check.
var Analyzer = &framework.Analyzer{
	Name: "portcheck",
	Doc:  "flag ignored error/status returns from port Enqueue/Dequeue and device-file APIs",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, _ = s.X.(*ast.CallExpr)
			case *ast.GoStmt:
				call = s.Call
			case *ast.DeferStmt:
				call = s.Call
			}
			if call == nil {
				return true
			}
			fn := framework.FuncFor(pass.TypesInfo, call.Fun)
			if fn == nil || fn.Pkg() == nil || !watched[framework.PkgPath(fn.Pkg())] {
				return true
			}
			res := statusResult(fn)
			if res == "" {
				return true
			}
			if pass.InTestFile(call.Pos()) {
				return true
			}
			pass.Reportf(call.Pos(), "result of %s.%s discarded; its %s reports port/file status and must be consumed (suppress with %s)", fn.Pkg().Name(), fn.Name(), res, pass.Directive())
			return true
		})
	}
	return nil
}

// statusResult names the status-carrying result type of fn ("error" or
// "bool"), or "" if fn carries no status.
func statusResult(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return ""
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if types.Identical(last, types.Universe.Lookup("error").Type()) {
		return "error"
	}
	if basic, ok := last.Underlying().(*types.Basic); ok && basic.Kind() == types.Bool {
		return "bool"
	}
	return ""
}
