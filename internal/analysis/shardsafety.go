package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// shardTrackedRecv are the receiver types that live behind netstore's
// store loop: the store (node maps, watch buckets, subtree-hash cells),
// its transactions, the trace recorder and the private sim kernel. All
// of them are single-goroutine structures owned by that loop.
var shardTrackedRecv = map[string]bool{
	"*iorchestra/internal/store.Store":    true,
	"*iorchestra/internal/store.Txn":      true,
	"*iorchestra/internal/trace.Recorder": true,
	"*iorchestra/internal/sim.Kernel":     true,
}

// shardRunnerNames are the sanctioned wrappers that ship a closure to
// the store loop; a function-literal argument to any of them runs on the
// loop and may touch tracked state freely. run and runTxn are handle's
// local wrappers around do.
var shardRunnerNames = map[string]bool{
	"do": true, "Do": true, "run": true, "runTxn": true,
}

// ShardSafety enforces the netstore store-loop discipline: the store,
// its transactions, the recorder and the kernel are confined to the one
// store-loop goroutine, while every connection runs two goroutines of
// its own. Tracked method calls must sit inside a closure passed to
// do/Do/run/runTxn or inside a function marked //storeloop (one
// documented to execute on the loop, like snapshotWalk). The op queue
// itself is off-limits outside do/storeLoop: a raw send is a back door
// around the confinement. (The pass keeps the name it had when the loop
// was one of several shards; allow comments and CI reference it.)
var ShardSafety = &Analyzer{
	Name: "shardsafety",
	Doc: "netstore store-loop state (store, txns, recorder, kernel) may only be touched " +
		"from the store loop: wrap calls in do/Do/run/runTxn closures " +
		"or mark loop-context functions //storeloop; the op queue belongs to do/storeLoop",
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
			w := &shardWalker{p: p, fn: fd.Name.Name}
			w.walk(fd.Body, false)
		}
	}
	return nil
}

type shardWalker struct {
	p  *Pass
	fn string // enclosing function name, for the op-queue ownership rule
}

// walk inspects a subtree; onLoop records whether it executes on the
// store loop (i.e. inside a runner closure).
func (w *shardWalker) walk(n ast.Node, onLoop bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if shardRunnerNames[calleeName(n)] {
				// The closure argument runs on the loop; everything else
				// in the call stays in the caller's context.
				w.walk(n.Fun, onLoop)
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						w.walk(lit.Body, true)
					} else {
						w.walk(arg, onLoop)
					}
				}
				return false
			}
			if onLoop {
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if recv := recvTypeString(w.p.TypesInfo, sel); shardTrackedRecv[recv] {
					w.p.Reportf(n.Pos(), "(%s).%s may only run on the store loop; "+
						"wrap the call in do/Do/run/runTxn or mark the function //storeloop",
						recv, sel.Sel.Name)
				}
			}
		case *ast.SendStmt:
			if w.isOpsChan(n.Chan) && w.fn != "do" {
				w.reportOps(n.Pos())
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && w.isOpsChan(n.X) && w.fn != "do" && w.fn != "storeLoop" {
				w.reportOps(n.Pos())
			}
		case *ast.RangeStmt:
			if w.isOpsChan(n.X) && w.fn != "storeLoop" {
				w.reportOps(n.Pos())
			}
		}
		return true
	})
}

func (w *shardWalker) reportOps(pos token.Pos) {
	w.p.Reportf(pos, "the store-loop op queue belongs to do and storeLoop; submit work "+
		"through do so nothing reaches the store behind the loop's back")
}

// isOpsChan reports whether e is a selector named ops with channel type
// (the store loop's op queue).
func (w *shardWalker) isOpsChan(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ops" {
		return false
	}
	tv, ok := w.p.TypesInfo.Types[sel]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
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
