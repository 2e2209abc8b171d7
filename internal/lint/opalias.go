package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// OpAlias flags an *op.Op that is mutated after a message aliasing it has
// been handed to a send path. The engines share built operations freely —
// the notifier stores the same *op.Op in its history buffer, in every
// materialised bridge and in the broadcast message (server.go) — and that
// sharing is only sound because a built operation is immutable. Calling one
// of the fluent mutators
// (Retain/Insert/Delete) on an op a ClientMsg/ServerMsg already carries
// retroactively edits a message in flight: the receiver integrates an
// operation that no longer matches its timestamp, which is precisely the
// §6 unsound-relay ablation reproduced silently inside ModeTransform.
//
// The analysis is per-function and source-ordered: it records where an op
// value becomes reachable from a sent message (directly as a send/enqueue
// argument or channel-send value, or stored in the op-typed field of a
// struct that is then sent) and reports any later mutator call on the same
// variable. Clone() before mutating.
var OpAlias = &Analyzer{
	Name: "opalias",
	Doc:  "*op.Op reachable from a sent message is mutated after the send",
	Run:  runOpAlias,
}

// opAliasSinks are call names that hand a message to a delivery path.
var opAliasSinks = map[string]bool{
	"Send": true, "Broadcast": true, "enqueue": true, "Enqueue": true,
}

// opMutators are the *op.Op methods that modify the receiver in place.
var opMutators = map[string]bool{"Retain": true, "Insert": true, "Delete": true}

func runOpAlias(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				w := &aliasWalker{
					pass:      pass,
					published: make(map[types.Object]token.Pos),
					msgOps:    make(map[types.Object][]types.Object),
				}
				w.walk(body)
			}
			return true
		})
	}
}

type aliasWalker struct {
	pass *Pass
	// published records, per op-typed variable, where a message aliasing
	// it was first sent.
	published map[types.Object]token.Pos
	// msgOps tracks which op variables are stored inside a message-holding
	// variable (one level of indirection: m := ServerMsg{Op: x}; send(m)).
	msgOps map[types.Object][]types.Object
}

// walk visits body in source order, skipping nested function literals
// (analyzed independently with fresh state).
func (w *aliasWalker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			w.recordStores(n)
		case *ast.SendStmt:
			w.publish(n.Value, n.Arrow)
		case *ast.CallExpr:
			w.visitCall(n)
		}
		return true
	})
}

func (w *aliasWalker) visitCall(call *ast.CallExpr) {
	// Mutator on a published op?
	if isOpMutator(w.pass.Info, call) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if obj := identObj(w.pass.Info, sel.X); obj != nil {
				if sentAt, ok := w.published[obj]; ok && sentAt < call.Pos() {
					w.pass.Reportf(call.Pos(),
						"op %q is aliased by a message sent at %s and must not be mutated after the send; Clone() it first",
						obj.Name(), w.pass.Fset.Position(sentAt))
				}
			}
		}
		return
	}
	// Sink call: every argument may escape onto the wire.
	if isSinkCall(call) {
		for _, a := range call.Args {
			w.publish(a, call.Pos())
		}
	}
}

// isOpMutator reports whether call invokes one of the in-place *op.Op
// builder methods.
func isOpMutator(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || !opMutators[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && isNamed(sig.Recv().Type(), "repro/internal/op", "Op")
}

// isSinkCall reports whether call hands its arguments to a delivery path,
// by method/function name (Send, Broadcast, enqueue, Enqueue).
func isSinkCall(call *ast.CallExpr) bool {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return opAliasSinks[fn.Name]
	case *ast.SelectorExpr:
		return opAliasSinks[fn.Sel.Name]
	}
	return false
}

// recordStores tracks op values flowing into message variables:
//
//	m := ServerMsg{Op: x}   // composite assignment
//	m.Op = x                // field assignment
//	y := x                  // op alias
func (w *aliasWalker) recordStores(st *ast.AssignStmt) {
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, lhs := range st.Lhs {
		rhs := ast.Unparen(st.Rhs[i])
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := identObj(w.pass.Info, l)
			if obj == nil {
				continue
			}
			if w.isOpExpr(lhs) {
				// Op-to-op alias: share publish state via msgOps so a
				// publish of either name covers the stored value.
				if src := w.opObjOf(rhs); src != nil {
					w.msgOps[obj] = append(w.msgOps[obj], src)
				}
				continue
			}
			w.msgOps[obj] = append(w.msgOps[obj], w.opsInExpr(rhs)...)
		case *ast.SelectorExpr:
			// m.Op = x
			if base := identObj(w.pass.Info, l.X); base != nil && w.isOpExpr(lhs) {
				if src := w.opObjOf(rhs); src != nil {
					w.msgOps[base] = append(w.msgOps[base], src)
				}
			}
		}
	}
}

// publish marks every op variable reachable from e as sent at pos.
func (w *aliasWalker) publish(e ast.Expr, pos token.Pos) {
	for _, obj := range w.opsInExpr(e) {
		if _, ok := w.published[obj]; !ok {
			w.published[obj] = pos
		}
	}
}

// opsInExpr collects the op-typed variables reachable from e: e itself, op
// values inside a composite literal, or ops previously stored in a message
// variable.
func (w *aliasWalker) opsInExpr(e ast.Expr) []types.Object {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	var out []types.Object
	switch e := e.(type) {
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			out = append(out, w.opsInExpr(v)...)
		}
	case *ast.Ident:
		obj := identObj(w.pass.Info, e)
		if obj == nil {
			return nil
		}
		if w.isOpExpr(e) {
			out = append(out, obj)
		}
		// Ops stored earlier in this variable (message structs and op
		// aliases alike).
		out = append(out, w.msgOps[obj]...)
	}
	return out
}

// opObjOf resolves e to the object of an op-typed identifier, or nil.
func (w *aliasWalker) opObjOf(e ast.Expr) types.Object {
	if !w.isOpExpr(e) {
		return nil
	}
	return identObj(w.pass.Info, e)
}

func (w *aliasWalker) isOpExpr(e ast.Expr) bool {
	tv, ok := w.pass.Info.Types[e]
	return ok && isNamed(tv.Type, "repro/internal/op", "Op")
}
