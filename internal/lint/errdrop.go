package lint

import (
	"go/ast"
	"go/types"
)

// ErrDrop flags discarded error results from the wire codec, the transports,
// and the journal. These are the system's I/O boundary: a swallowed encode
// or append error means an operation the clocks have already counted was
// never durably recorded or never reached the peer, which desynchronizes
// the 2-element state vectors from reality (the FIFO discipline in §2.2
// assumes the link either delivers or fails loudly).
//
// Flagged forms:
//
//	conn.Send(m)                   // bare call statement
//	go conn.Send(m)                // goroutine, error unobservable
//	defer jw.Close()               // deferred, error unobservable
//	v, _ := wire.Decode(b)         // error position blanked in a tuple
//
// A single-value explicit discard (`_ = conn.Close()`) is accepted: it is
// visible at the call site and conventionally marks a considered decision.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Run:  runErrDrop,
}

var errDropPkgs = map[string]bool{
	"repro/internal/wire":      true,
	"repro/internal/transport": true,
	"repro/internal/journal":   true,
}

func runErrDrop(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					if fn, ok := pass.errDropTarget(call); ok {
						pass.Reportf(call.Pos(), "error result of %s.%s dropped", fn.Pkg().Name(), fn.Name())
					}
				}
			case *ast.GoStmt:
				if fn, ok := pass.errDropTarget(st.Call); ok {
					pass.Reportf(st.Call.Pos(), "error result of %s.%s unobservable in go statement", fn.Pkg().Name(), fn.Name())
				}
			case *ast.DeferStmt:
				if fn, ok := pass.errDropTarget(st.Call); ok {
					pass.Reportf(st.Call.Pos(), "error result of deferred %s.%s dropped", fn.Pkg().Name(), fn.Name())
				}
			case *ast.AssignStmt:
				pass.checkBlankedError(st)
			}
			return true
		})
	}
}

// errDropTarget reports whether call is to a watched package and returns an
// error among its results.
func (p *Pass) errDropTarget(call *ast.CallExpr) (*types.Func, bool) {
	fn := calleeFunc(p.Info, call)
	if fn == nil || !errDropPkgs[funcPkgPath(fn)] {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, false
	}
	return fn, errorResultIndex(sig) >= 0
}

// errorResultIndex returns the position of the (last) error result, or -1.
func errorResultIndex(sig *types.Signature) int {
	res := sig.Results()
	for i := res.Len() - 1; i >= 0; i-- {
		if isErrorType(res.At(i).Type()) {
			return i
		}
	}
	return -1
}

func isErrorType(t types.Type) bool {
	n := namedType(t)
	return n != nil && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// checkBlankedError flags `v, _ := watched(...)` where the blank lands on
// the error position of a multi-result call. A whole-result explicit
// discard (`_ = f()`) is deliberately accepted.
func (p *Pass) checkBlankedError(st *ast.AssignStmt) {
	if len(st.Rhs) != 1 || len(st.Lhs) < 2 {
		return
	}
	call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn, ok := p.errDropTarget(call)
	if !ok {
		return
	}
	sig := fn.Type().(*types.Signature)
	idx := errorResultIndex(sig)
	if idx >= len(st.Lhs) {
		return
	}
	if id, ok := st.Lhs[idx].(*ast.Ident); ok && id.Name == "_" {
		p.Reportf(id.Pos(), "error result of %s.%s assigned to blank", fn.Pkg().Name(), fn.Name())
	}
}
