// Package spanbalance flags trace spans that are begun but can leak
// without an End.
//
// The tracing contract (internal/trace) is that every Begin/BeginAsync
// is paired with exactly one End: a leaked sync span corrupts its
// track's nesting and a leaked async span forces the exporter to
// synthesize a close at export time, so the Perfetto view shows a span
// covering the rest of the simulation. The exporter tolerates leaks —
// the analyzer exists so they stay deliberate, not accidental.
//
// For every call to (*trace.Tracer).Begin / BeginAsync outside the
// trace package itself the analyzer requires one of:
//
//   - the chain ends inline (`tr.Begin(tk, "x").End()`),
//   - the result is stored in a struct field, returned, or passed on —
//     a long-lived span whose End lives elsewhere (the fiber runtime's
//     run span is the canonical case), or
//   - the result lands in a local variable and every path from the
//     assignment to the end of the variable's scope either ends the
//     span (`sp.End()`, possibly behind Arg chains), defers its end,
//     or terminates the process (return after End, panic).
//
// A Begin whose result is discarded outright is always a leak: nothing
// can ever end that span. Deliberate exceptions are suppressed with
// //biscuitvet:ignore spanbalance: <reason>.
package spanbalance

import (
	"go/ast"
	"go/types"

	"biscuit/internal/analysis/framework"
)

const tracePkg = "biscuit/internal/trace"

// Analyzer is the spanbalance check.
var Analyzer = &framework.Analyzer{
	Name: "spanbalance",
	Doc:  "flag trace.Begin/BeginAsync calls whose span is not ended on every path (leaked spans corrupt track nesting in the export)",
	Run:  run,
}

func run(pass *framework.Pass) error {
	if framework.PkgPath(pass.Pkg) == tracePkg {
		return nil // the tracer's own implementation and tests manage raw events
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.InTestFile(fd.Pos()) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc analyzes every Begin site in one function.
func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	parents := parentMap(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBeginCall(pass.TypesInfo, call) {
			return true
		}
		checkBegin(pass, fd, call, parents)
		return true
	})
}

// checkBegin classifies one Begin call by where its Span value flows.
func checkBegin(pass *framework.Pass, fd *ast.FuncDecl, call *ast.CallExpr, parents map[ast.Node]ast.Node) {
	// Ride out a chain of Arg/ArgStr (and a trailing End) applied
	// directly to the result: the span value is the outermost chained
	// call expression.
	expr := ast.Expr(call)
	for {
		sel, ok := parents[expr].(*ast.SelectorExpr)
		if !ok {
			break
		}
		outer, ok := parents[sel].(*ast.CallExpr)
		if !ok || outer.Fun != sel {
			break
		}
		fn := framework.FuncFor(pass.TypesInfo, outer.Fun)
		if fn == nil || fn.Pkg() == nil || framework.PkgPath(fn.Pkg()) != tracePkg {
			break
		}
		if fn.Name() == "End" {
			return // balanced inline: tr.Begin(...).End()
		}
		expr = outer
	}

	switch parent := parents[expr].(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "result of %s is discarded; the span can never be ended (assign it and End it, or suppress with %s)",
			beginName(pass.TypesInfo, call), pass.Directive())
	case *ast.AssignStmt:
		v, id := assignedVar(pass.TypesInfo, parent, expr)
		if id != nil && id.Name == "_" {
			pass.Reportf(call.Pos(), "result of %s is discarded; the span can never be ended (assign it and End it, or suppress with %s)",
				beginName(pass.TypesInfo, call), pass.Directive())
			return
		}
		if v == nil {
			return // field, map or index target: a long-lived span ended elsewhere
		}
		checkLocalSpan(pass, fd, call, parent, v, parents)
	case *ast.ValueSpec:
		// var sp = tr.Begin(...): resolve the matching name.
		for i, val := range parent.Values {
			if val == expr && i < len(parent.Names) {
				if parent.Names[i].Name == "_" {
					pass.Reportf(call.Pos(), "result of %s is discarded; the span can never be ended (assign it and End it, or suppress with %s)",
						beginName(pass.TypesInfo, call), pass.Directive())
					return
				}
				if v, ok := pass.TypesInfo.Defs[parent.Names[i]].(*types.Var); ok {
					if stmt, ok := parents[parent].(*ast.DeclStmt); ok {
						checkLocalSpan(pass, fd, call, stmt, v, parents)
					}
				}
			}
		}
	default:
		// Returned, passed as an argument, stored in a composite
		// literal, ...: the span escapes to an owner the analyzer
		// cannot see; its End is that owner's contract.
	}
}

// checkLocalSpan verifies a span held in local variable v is ended on
// every path from its assignment to the end of its scope.
func checkLocalSpan(pass *framework.Pass, fd *ast.FuncDecl, call *ast.CallExpr, stmt ast.Stmt, v *types.Var, parents map[ast.Node]ast.Node) {
	c := &checker{pass: pass, v: v}
	if c.hasDeferredEnd(fd.Body) {
		return
	}
	// Locate the assignment inside its enclosing statement list and
	// walk the remainder of that scope.
	body, idx := stmtList(parents, stmt)
	if body == nil {
		return // assignment in an unusual position (if-init, ...): out of scope
	}
	res := c.seq(body[idx+1:], flow{})
	if !res.ended && !res.terminated {
		pass.Reportf(call.Pos(), "span %s is not ended before it goes out of scope; add %s.End() on the fall-through path or defer it (suppress with %s)",
			v.Name(), v.Name(), pass.Directive())
	}
	for _, n := range c.leaks {
		pass.Reportf(n.Pos(), "span %s is not ended on this path out of its scope (suppress with %s)", v.Name(), pass.Directive())
	}
}

// flow is the walker state entering or leaving a statement.
type flow struct {
	ended      bool // the span has been ended on this path
	terminated bool // the path has left the walked region (return/panic/branch)
}

// checker walks one span variable's scope.
type checker struct {
	pass  *framework.Pass
	v     *types.Var
	leaks []ast.Node // statements that exit the scope with the span open
}

// seq walks a statement list. branchLocal flags are encoded by the
// callers: loop bodies recurse with branch statements considered local.
func (c *checker) seq(stmts []ast.Stmt, in flow) flow {
	return c.seqCtl(stmts, in, false, false)
}

func (c *checker) seqCtl(stmts []ast.Stmt, in flow, breakLocal, continueLocal bool) flow {
	cur := in
	for _, s := range stmts {
		if cur.terminated {
			break // unreachable
		}
		cur = c.stmt(s, cur, breakLocal, continueLocal)
	}
	return cur
}

func (c *checker) stmt(s ast.Stmt, in flow, breakLocal, continueLocal bool) flow {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if c.isEndCall(s.X) {
			in.ended = true
		} else if isPanic(s.X) {
			in.terminated = true
		}
	case *ast.ReturnStmt:
		if !in.ended {
			c.leaks = append(c.leaks, s)
		}
		in.terminated = true
	case *ast.BranchStmt:
		local := (s.Tok.String() == "break" && breakLocal) ||
			(s.Tok.String() == "continue" && continueLocal)
		if s.Label != nil {
			local = false // labeled jumps can leave any nesting level
		}
		if s.Tok.String() == "goto" {
			local = false
		}
		if !local && !in.ended && s.Tok.String() != "fallthrough" {
			c.leaks = append(c.leaks, s)
		}
		in.terminated = true
	case *ast.DeferStmt:
		if c.deferEnds(s) {
			in.ended = true
		}
	case *ast.BlockStmt:
		return c.seqCtl(s.List, in, breakLocal, continueLocal)
	case *ast.LabeledStmt:
		return c.stmt(s.Stmt, in, breakLocal, continueLocal)
	case *ast.IfStmt:
		if s.Init != nil {
			in = c.stmt(s.Init, in, breakLocal, continueLocal)
		}
		then := c.seqCtl(s.Body.List, in, breakLocal, continueLocal)
		els := in // missing else: fall through with the entry state
		if s.Else != nil {
			els = c.stmt(s.Else, in, breakLocal, continueLocal)
		}
		return merge(then, els)
	case *ast.ForStmt, *ast.RangeStmt:
		var body *ast.BlockStmt
		if f, ok := s.(*ast.ForStmt); ok {
			body = f.Body
		} else {
			body = s.(*ast.RangeStmt).Body
		}
		// The body may run zero times, so its End cannot be credited to
		// the fall-through path; violations inside still count.
		c.seqCtl(body.List, in, true, true)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var clauses []ast.Stmt
		hasDefault := false
		switch s := s.(type) {
		case *ast.SwitchStmt:
			clauses = s.Body.List
		case *ast.TypeSwitchStmt:
			clauses = s.Body.List
		case *ast.SelectStmt:
			clauses = s.Body.List
			hasDefault = true // one comm clause always runs
		}
		allEnd, allTerm := true, true
		for _, cl := range clauses {
			var body []ast.Stmt
			switch cl := cl.(type) {
			case *ast.CaseClause:
				if cl.List == nil {
					hasDefault = true
				}
				body = cl.Body
			case *ast.CommClause:
				body = cl.Body
			}
			res := c.seqCtl(body, in, true, continueLocal)
			if !res.terminated {
				allTerm = false
				if !res.ended {
					allEnd = false
				}
			}
		}
		if hasDefault && len(clauses) > 0 {
			if allTerm {
				in.terminated = true
			} else if allEnd {
				in.ended = true
			}
		}
	}
	return in
}

// merge joins two branch outcomes at their common continuation.
func merge(a, b flow) flow {
	switch {
	case a.terminated && b.terminated:
		return flow{terminated: true}
	case a.terminated:
		return b
	case b.terminated:
		return a
	default:
		return flow{ended: a.ended && b.ended}
	}
}

// hasDeferredEnd reports whether any defer in the function ends v —
// directly or inside a deferred closure.
func (c *checker) hasDeferredEnd(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if d, ok := n.(*ast.DeferStmt); ok && c.deferEnds(d) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (c *checker) deferEnds(d *ast.DeferStmt) bool {
	if c.isEndCall(d.Call) {
		return true
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if found {
				return false
			}
			if e, ok := n.(*ast.ExprStmt); ok && c.isEndCall(e.X) {
				found = true
				return false
			}
			return true
		})
		return found
	}
	return false
}

// isEndCall reports whether e is `v.End()`, possibly through an
// Arg/ArgStr chain rooted at v (`v.Arg("k", 1).End()`).
func (c *checker) isEndCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := framework.FuncFor(c.pass.TypesInfo, call.Fun)
	if fn == nil || fn.Name() != "End" || fn.Pkg() == nil || framework.PkgPath(fn.Pkg()) != tracePkg {
		return false
	}
	id := rootIdent(call.Fun)
	return id != nil && c.pass.TypesInfo.ObjectOf(id) == c.v
}

// rootIdent finds the base identifier of a selector/call chain:
// sp.Arg("k", 1).End -> sp.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isBeginCall reports whether call is (*trace.Tracer).Begin/BeginAsync.
func isBeginCall(info *types.Info, call *ast.CallExpr) bool {
	fn := framework.FuncFor(info, call.Fun)
	if fn == nil || fn.Pkg() == nil || framework.PkgPath(fn.Pkg()) != tracePkg {
		return false
	}
	return fn.Name() == "Begin" || fn.Name() == "BeginAsync"
}

func beginName(info *types.Info, call *ast.CallExpr) string {
	if fn := framework.FuncFor(info, call.Fun); fn != nil {
		return "trace.Tracer." + fn.Name()
	}
	return "trace span begin"
}

// isPanic reports whether e is a call to the panic builtin.
func isPanic(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// assignedVar finds the local variable expr is assigned to in stmt, or
// nil when the target is a field, index or other non-identifier.
func assignedVar(info *types.Info, stmt *ast.AssignStmt, expr ast.Expr) (*types.Var, *ast.Ident) {
	for i, rhs := range stmt.Rhs {
		if rhs != expr {
			continue
		}
		// With a single RHS call the positions line up one-to-one; a
		// multi-value RHS cannot produce a Span, so i indexes Lhs.
		if i >= len(stmt.Lhs) {
			return nil, nil
		}
		id, ok := ast.Unparen(stmt.Lhs[i]).(*ast.Ident)
		if !ok {
			return nil, nil
		}
		if v, ok := info.ObjectOf(id).(*types.Var); ok {
			return v, id
		}
		return nil, id
	}
	return nil, nil
}

// stmtList locates stmt inside its enclosing statement list (block,
// case clause, or comm clause) and returns that list with stmt's index.
func stmtList(parents map[ast.Node]ast.Node, stmt ast.Stmt) ([]ast.Stmt, int) {
	var list []ast.Stmt
	switch p := parents[stmt].(type) {
	case *ast.BlockStmt:
		list = p.List
	case *ast.CaseClause:
		list = p.Body
	case *ast.CommClause:
		list = p.Body
	default:
		return nil, 0
	}
	for i, s := range list {
		if s == stmt {
			return list, i
		}
	}
	return nil, 0
}

// parentMap records each node's parent within root.
func parentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}
