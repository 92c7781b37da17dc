// Package fiberyield flags device-side loops that can spin without
// ever yielding the cooperative scheduler.
//
// Biscuit SSDlets run as cooperative fibers: the simulated device has
// no preemption, so a fiber only gives up its CPU inside runtime calls
// — Compute, Yield, the device file APIs (ReadFile/WriteFile/ScanFile),
// port Put/Get, and anything built on them. An unconditional `for {}`
// loop whose body reaches none of those calls starves every other
// fiber on the core and, because simulated time only advances at yield
// points, wedges the whole simulation at a fixed timestamp. The
// analyzer scans every function that receives a *core.Context (the
// SSDlet entry-point signature, including the biscuit.Context alias)
// and reports unconditional for-loops whose bodies contain no call
// into a runtime package and no call that forwards the Context to a
// helper. Conditional loops are out of scope: their exit is governed
// by data, which the analyzer cannot bound, and in practice the
// starvation bugs seen in device code are drain loops of the
// `for { ... }` shape. Suppress a deliberate spin (e.g. a loop whose
// every path returns) with //biscuitvet:ignore fiberyield: <reason>.
package fiberyield

import (
	"go/ast"
	"go/types"

	"biscuit/internal/analysis/framework"
)

// runtimePkgs are the packages whose calls block, advance simulated
// time, or otherwise re-enter the scheduler. A loop that calls into
// any of them yields.
var runtimePkgs = map[string]bool{
	"biscuit":                 true,
	"biscuit/internal/core":   true,
	"biscuit/internal/fibers": true,
	"biscuit/internal/ports":  true,
	"biscuit/internal/isfs":   true,
	"biscuit/internal/sim":    true,
}

// Analyzer is the fiberyield check.
var Analyzer = &framework.Analyzer{
	Name: "fiberyield",
	Doc:  "flag unconditional loops in SSDlet code that never call into the fiber runtime (they starve the cooperative scheduler)",
	Run:  run,
}

func run(pass *framework.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			if !hasContextParam(pass.TypesInfo, fd.Type) {
				continue
			}
			// Closures declared inside a device function run on the same
			// fiber, so the whole body — nested loops and literals
			// included — is in scope.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				loop, ok := n.(*ast.ForStmt)
				if !ok || loop.Cond != nil {
					return true
				}
				if yields(pass.TypesInfo, loop.Body) {
					return true
				}
				pass.Reportf(loop.Pos(), "unconditional loop in device function %s never calls into the fiber runtime; it starves the cooperative scheduler (yield via Compute/Yield/port or file APIs, or suppress with %s)", fd.Name.Name, pass.Directive())
				return true
			})
		}
	}
	return nil
}

// hasContextParam reports whether ft declares a parameter of type
// *core.Context (seen through the public biscuit.Context alias).
func hasContextParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if isContextPtr(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// isContextPtr reports whether t is *biscuit/internal/core.Context.
func isContextPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil &&
		framework.PkgPath(obj.Pkg()) == "biscuit/internal/core"
}

// yields reports whether body contains a call that can re-enter the
// scheduler: a call resolving into a runtime package (methods and
// package functions alike), or a call that forwards a *core.Context —
// the helper is then itself subject to this analyzer, so charging it
// with yielding here keeps the check compositional instead of
// inter-procedural.
func yields(info *types.Info, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := framework.FuncFor(info, call.Fun); fn != nil && fn.Pkg() != nil && runtimePkgs[framework.PkgPath(fn.Pkg())] {
			found = true
			return false
		}
		for _, arg := range call.Args {
			if isContextPtr(info.TypeOf(arg)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
