package lint

import (
	"go/ast"
	"go/types"
)

// NoPanic flags panic calls in library code. A replica that panics
// mid-session takes the whole star down with it (or, worse, only one site —
// leaving the others to diverge silently), so recoverable conditions must
// surface as errors through the engine APIs. The handful of genuinely
// unreachable guards — violated preconditions that indicate a bug in the
// caller, not a runtime condition — carry an explicit
// `//lint:allow nopanic` with justification.
var NoPanic = &Analyzer{
	Name: "nopanic",
	Run:  runNoPanic,
}

func runNoPanic(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				pass.Reportf(call.Pos(), "panic in library code; return an error (or allowlist an unreachable guard)")
			}
			return true
		})
	}
}
