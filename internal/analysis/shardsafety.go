package analysis

import (
	"go/ast"
	"strings"
)

// shardTrackedRecv are the receiver types that live behind netstore's
// store lock: the store (node maps, watch buckets, subtree-hash cells),
// its transactions, the trace recorder and the private sim kernel. All
// of them are one-goroutine-at-a-time structures that lock serialises.
var shardTrackedRecv = map[string]bool{
	"*iorchestra/internal/store.Store":    true,
	"*iorchestra/internal/store.Txn":      true,
	"*iorchestra/internal/trace.Recorder": true,
	"*iorchestra/internal/sim.Kernel":     true,
}

// shardRunnerNames are the sanctioned wrappers that run a closure under
// the store lock; a function-literal argument to any of them may touch
// tracked state freely. run and runTxn are handle's local wrappers
// around do.
var shardRunnerNames = map[string]bool{
	"do": true, "Do": true, "run": true, "runTxn": true,
}

// ShardSafety enforces the netstore store-lock discipline: the store,
// its transactions, the recorder and the kernel may only be touched
// while holding the server's store lock, which do takes around the
// closure it is handed and the kernel drain that follows. Tracked
// method calls must sit inside a closure passed to do/Do/run/runTxn or
// inside a function marked //storeloop — one documented to execute
// under the lock (enqueueEvent, repair, evict), and do itself, whose
// drain of the kernel is the store loop. (The pass and the marker keep
// the names they had when the lock was a goroutine, and before that one
// of several shards; allow comments and CI reference them.)
var ShardSafety = &Analyzer{
	Name: "shardsafety",
	Doc: "netstore store-lock state (store, txns, recorder, kernel) may only be touched " +
		"under the store lock: wrap calls in do/Do/run/runTxn closures " +
		"or mark lock-context functions //storeloop",
	AppliesTo: func(pkgPath string) bool {
		return pkgPath == "iorchestra/internal/netstore"
	},
	Run: runShardSafety,
}

func runShardSafety(p *Pass) error {
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || hasMarker(fd, "storeloop") {
				continue
			}
			shardWalk(p, fd.Body, false)
		}
	}
	return nil
}

// shardWalk inspects a subtree; locked records whether it executes
// under the store lock (i.e. inside a runner closure).
func shardWalk(p *Pass, n ast.Node, locked bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if shardRunnerNames[calleeName(call)] {
			// The closure argument runs under the lock; everything else
			// in the call stays in the caller's context.
			shardWalk(p, call.Fun, locked)
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					shardWalk(p, lit.Body, true)
				} else {
					shardWalk(p, arg, locked)
				}
			}
			return false
		}
		if locked {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if recv := recvTypeString(p.TypesInfo, sel); shardTrackedRecv[recv] {
				p.Reportf(call.Pos(), "(%s).%s may only run under the store lock; "+
					"wrap the call in do/Do/run/runTxn or mark the function //storeloop",
					recv, sel.Sel.Name)
			}
		}
		return true
	})
}

// calleeName extracts the bare function or method name of a call.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
