package analysis

import (
	"go/ast"
	"go/token"
)

// boundedRetry extends the graceful-degradation contract
// (docs/FAULTS.md) to every retry loop in the tree: a loop that spins on
// "try again" must decide, in bounded time, to give up loudly. The
// manager's flush/release deadlines follow this discipline; an unbounded
// `for { ...; continue }` anywhere else is a hang waiting for a fault
// injector to find it.
//
// Shape matched: a bare `for {` (no init/cond/post) containing a
// loop-level `continue`. Such a loop passes only if it also contains a
// relational comparison (<, <=, >, >=) — an attempt counter or deadline
// check — guarding a bail-out (break, return or panic). Loops bounded
// in the header (`for i := 0; i < n; i++`) and dispatch loops with no
// loop-level continue are out of shape and never flagged. The rule
// holds everywhere but internal/analysis, whose tests build
// retry-shaped loops as subjects.
var boundedRetry = &rule{
	name:    "boundedretry",
	inScope: func(s *source) bool { return s.pkg != "iorchestra/internal/analysis" },
	check: func(s *source, report func(token.Pos, string, ...any)) {
		ast.Inspect(s.file, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || loop.Cond != nil || loop.Init != nil || loop.Post != nil {
				return true
			}
			if hasLoopLevelContinue(loop) && !hasBoundedBail(loop) {
				report(loop.Pos(), "unbounded retry loop: a bare for that retries via continue "+
					"must bound its attempts with a counter or deadline check that breaks out "+
					"(see docs/LINTING.md#boundedretry)")
			}
			return true
		})
	},
}

// inspectLoopBody walks the loop body without descending into nested
// loops or function literals, whose continues and bail-outs belong to a
// different control context.
func inspectLoopBody(loop *ast.ForStmt, fn func(n ast.Node) bool) {
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return false
		}
		return fn(n)
	})
}

// hasLoopLevelContinue reports whether the loop retries: an unlabeled
// continue that targets this loop (not a nested one).
func hasLoopLevelContinue(loop *ast.ForStmt) bool {
	found := false
	inspectLoopBody(loop, func(n ast.Node) bool {
		if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.CONTINUE && br.Label == nil {
			found = true
		}
		return !found
	})
	return found
}

// hasBoundedBail reports whether the loop carries a bound: an if whose
// condition contains a relational comparison and whose body (or else)
// bails out via break, return or panic.
func hasBoundedBail(loop *ast.ForStmt) bool {
	found := false
	inspectLoopBody(loop, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok || !hasRelationalCmp(ifs.Cond) {
			return !found
		}
		if bailsOut(ifs.Body) || (ifs.Else != nil && bailsOut(ifs.Else)) {
			found = true
		}
		return !found
	})
	return found
}

func hasRelationalCmp(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if be, ok := n.(*ast.BinaryExpr); ok {
			switch be.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				found = true
			}
		}
		return !found
	})
	return found
}

func bailsOut(stmt ast.Node) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				found = true
			}
		}
		return !found
	})
	return found
}
