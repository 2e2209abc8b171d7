package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockSend flags a sync.Mutex/RWMutex held across a channel send or a
// blocking transport call (Conn.Send, FrameConn.SendFrame, Conn.Recv,
// Listener.Accept). In the
// notifier's fan-out path this is the classic distributed-deadlock recipe:
// a slow peer exerts backpressure, the send blocks while the engine lock is
// held, and every other site's operations stall behind it — which is
// exactly why sender.go drains an unbounded queue instead of sending from
// the session actor.
//
// The analysis is per-function and statement-ordered: Lock()/RLock() opens
// a held region closed by the matching Unlock()/RUnlock(); a deferred
// unlock keeps the region open to the end of the function. Function
// literals are analyzed separately with an empty region (a goroutine body
// does not run under the spawner's lock).
//
// The same held-region machinery also polices the observability layer:
// internal/obs splits its API into lock-free recording (Counter.Add,
// Histogram.Record, DecisionRing.Enabled — safe anywhere) and lock-taking
// registry/ring maintenance (Registry.Counter, .Snapshot, DecisionRing.Dump,
// …). Only the lock-free half may run under an engine mutex; resolve
// registry objects up front (as server.newSession does) and call them inside.
var LockSend = &Analyzer{
	Name: "locksend",
	Doc:  "mutex held across a channel send, blocking transport call, or lock-taking obs call",
	Run:  runLockSend,
}

// lockSendBlocking names the transport methods that may block on
// backpressure. The transport package itself is responsible for its own
// write serialization and is analyzed like everyone else — it passes
// because its internal mutexes guard buffered writers, not Conn calls.
var lockSendBlocking = map[string]bool{"Send": true, "SendFrame": true, "Recv": true, "Accept": true}

// lockSendObs names the internal/obs methods that take the registry or ring
// mutex (or allocate on a miss path). Deliberately absent: Counter.Add/Inc/
// Load, Histogram.Record/RecordInt/Since, Registry.LoadCounter/CounterNames,
// DecisionRing.Enabled/SetEnabled — those are atomic-only and are exactly
// what hot paths are meant to call while locked.
var lockSendObs = map[string]map[string]bool{
	"Registry": {
		"Counter": true, "Histogram": true, "Gauge": true, "CounterFunc": true,
		"Child": true, "DropChild": true, "Snapshot": true,
	},
	"DecisionRing": {
		"Record": true, "Total": true, "Dump": true, "WriteJSONL": true, "Reset": true,
	},
}

func runLockSend(pass *Pass) {
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
				w := &lockWalker{pass: pass, held: make(map[string]token.Pos)}
				w.walkStmts(body.List)
			}
			return true // nested literals are found and walked independently
		})
	}
}

type lockWalker struct {
	pass *Pass
	held map[string]token.Pos // lock expression → Lock() position
}

func (w *lockWalker) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		w.walkStmt(s)
	}
}

// branch runs a nested statement under a copy of the held set, so a lock
// released (or taken) on one control-flow path is still considered held
// (or free) on the fall-through path.
func (w *lockWalker) branch(s ast.Stmt) {
	if s == nil {
		return
	}
	saved := w.held
	w.held = make(map[string]token.Pos, len(saved))
	for k, v := range saved {
		w.held[k] = v
	}
	w.walkStmt(s)
	w.held = saved
}

func (w *lockWalker) walkStmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, op, ok := w.lockOp(call); ok {
				switch op {
				case "Lock", "RLock":
					w.held[key] = call.Pos()
				case "Unlock", "RUnlock":
					delete(w.held, key)
				}
				return
			}
		}
		w.scan(s.X)
	case *ast.SendStmt:
		w.reportIfHeld(s.Arrow, "channel send")
		w.scan(s.Chan)
		w.scan(s.Value)
	case *ast.DeferStmt:
		// A deferred unlock keeps the lock held for the remainder of the
		// function — which is the region this analyzer exists to police.
		// The deferred call itself runs at return; its arguments are
		// evaluated now.
		if _, op, ok := w.lockOp(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			return
		}
		for _, a := range s.Call.Args {
			w.scan(a)
		}
	case *ast.GoStmt:
		// The spawned call runs asynchronously; only its arguments are
		// evaluated under the current locks.
		for _, a := range s.Call.Args {
			w.scan(a)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scan(e)
		}
		for _, e := range s.Lhs {
			w.scan(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scan(v)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scan(e)
		}
	case *ast.IfStmt:
		w.walkStmt(s.Init)
		w.scan(s.Cond)
		w.branch(s.Body)
		w.branch(s.Else)
	case *ast.ForStmt:
		w.walkStmt(s.Init)
		w.scan(s.Cond)
		w.branch(s.Body)
	case *ast.RangeStmt:
		w.scan(s.X)
		w.branch(s.Body)
	case *ast.SwitchStmt:
		w.walkStmt(s.Init)
		w.scan(s.Tag)
		for _, c := range s.Body.List {
			w.branch(c)
		}
	case *ast.TypeSwitchStmt:
		w.walkStmt(s.Init)
		for _, c := range s.Body.List {
			w.branch(c)
		}
	case *ast.CaseClause:
		for _, e := range s.List {
			w.scan(e)
		}
		w.walkStmts(s.Body)
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			w.branch(c)
		}
	case *ast.CommClause:
		w.walkStmt(s.Comm)
		w.walkStmts(s.Body)
	case *ast.BlockStmt:
		w.walkStmts(s.List)
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	}
}

// scan inspects an expression for blocking transport calls, skipping nested
// function literals (their bodies do not execute here).
func (w *lockWalker) scan(e ast.Expr) {
	if e == nil || len(w.held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			fn := calleeFunc(w.pass.Info, call)
			switch {
			case fn != nil && funcPkgPath(fn) == "repro/internal/transport" && lockSendBlocking[fn.Name()]:
				w.reportIfHeld(call.Pos(), "blocking transport."+fn.Name())
			case fn != nil && funcPkgPath(fn) == "repro/internal/obs" && lockSendObs[recvTypeName(fn)][fn.Name()]:
				w.reportIfHeld(call.Pos(), "lock-taking obs."+recvTypeName(fn)+"."+fn.Name())
			}
		}
		return true
	})
}

func (w *lockWalker) reportIfHeld(pos token.Pos, what string) {
	advice := "enqueue instead — a blocked peer must not stall the engine"
	if strings.HasPrefix(what, "lock-taking obs.") {
		advice = "resolve the counter/histogram before locking and record through it — registry maintenance must not run under an engine lock"
	}
	for key, lockPos := range w.held {
		w.pass.Reportf(pos, "%s while %s is held (locked at %s); %s",
			what, key, w.pass.Fset.Position(lockPos), advice)
		return // one report per site is enough
	}
}

// recvTypeName returns the name of a method's receiver type (behind any
// pointer), or "" for plain functions.
func recvTypeName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	n := namedType(recv.Type())
	if n == nil || n.Obj() == nil {
		return ""
	}
	return n.Obj().Name()
}

// lockOp recognizes mu.Lock / mu.RLock / mu.Unlock / mu.RUnlock calls on
// sync.Mutex, sync.RWMutex, or sync.Locker values and returns the lock's
// receiver expression (rendered as a stable key) and the operation name.
func (w *lockWalker) lockOp(call *ast.CallExpr) (key, op string, ok bool) {
	fn := calleeFunc(w.pass.Info, call)
	if fn == nil || funcPkgPath(fn) != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", false
	}
	sel, ok2 := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok2 {
		return "", "", false
	}
	return types.ExprString(sel.X), fn.Name(), true
}
