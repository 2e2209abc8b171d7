package lint

import "go/ast"

// CacheMut polices the ownership discipline of the composed-suffix
// transform cache (internal/core, DESIGN.md §13). The cache fields —
// clientState.comp/.unfolded/.compHold on the notifier side,
// Client.pcomp/.punfolded/.pcompHold on the client side — are derived
// state over the bridge/pending lists: every mutation must preserve the
// invariant that comp composes exactly the live suffix and unfolded records
// exactly the owed rebases. The engines guarantee this by confining
// mutation to their own methods, which callers serialize on an actor loop
// (internal/server's Session) or under their own lock. A write from
// anywhere else — a free function, another type's method, or a function
// literal (which may execute on another goroutine, outside the engine's
// serialization) — bypasses that discipline and either races or desyncs the
// cache from the list it summarizes, so the analyzer flags assignments to
// and addresses-of these fields outside methods of the owning engine type.
//
// Passing the fields to helpers by pointer from inside an owner method
// (clearFolds(&st.unfolded)) stays legal: the helper runs synchronously on
// the owner's call stack, under the same serialization. So are the holder
// type's own methods (clientState.ack, which prunes the bridge and the cache
// over it in one step): the record is unexported and reachable only through
// its engine, so its methods run on an owner's call stack too.
var CacheMut = &Analyzer{
	Name: "cachemut",
	Doc:  "composed-suffix cache field mutated outside the owning engine's methods",
	Run:  runCacheMut,
}

// cacheMutOwner maps holder-type name → cache field → required method
// receiver type. clientState is the notifier's per-destination record, so
// its cache belongs to Server; the client's pending-list cache lives on
// Client itself.
var cacheMutOwner = map[string]map[string]string{
	"clientState": {"comp": "Server", "unfolded": "Server", "compHold": "Server"},
	"Client":      {"pcomp": "Client", "punfolded": "Client", "pcompHold": "Client"},
}

func runCacheMut(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok {
				return true
			}
			if fn.Body != nil {
				checkCacheMut(pass, fn.Body, recvDeclName(fn))
			}
			return false // nested literals are handled inside checkCacheMut
		})
	}
}

// checkCacheMut walks one function body. owner is the receiver type name
// ("" for free functions); function literals are walked with owner "" —
// a literal may outlive the enclosing call or run on another goroutine, so
// it gets no ownership credit from the method that created it.
func checkCacheMut(pass *Pass, body ast.Node, owner string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkCacheMut(pass, n.Body, "")
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				reportCacheField(pass, lhs, owner, "assigned")
			}
		case *ast.IncDecStmt:
			reportCacheField(pass, n.X, owner, "mutated")
		case *ast.UnaryExpr:
			// &x.field lets the mutation escape the owner's methods.
			if n.Op.String() == "&" {
				reportCacheField(pass, n.X, owner, "address taken")
			}
		}
		return true
	})
}

// reportCacheField flags e when it selects a composed-cache field and owner
// is not the field's engine type.
func reportCacheField(pass *Pass, e ast.Expr, owner, how string) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok {
		return
	}
	named := namedType(tv.Type)
	if named == nil || named.Obj() == nil {
		return
	}
	fields, ok := cacheMutOwner[named.Obj().Name()]
	if !ok {
		return
	}
	want, ok := fields[sel.Sel.Name]
	if !ok {
		return
	}
	if owner == want || owner == named.Obj().Name() {
		return
	}
	where := "a free function or literal"
	if owner != "" {
		where = "a " + owner + " method"
	}
	pass.Reportf(e.Pos(), "composed-cache field %s.%s %s in %s; only %s methods may mutate it (engine-lock confinement)",
		named.Obj().Name(), sel.Sel.Name, how, where, want)
}

// recvDeclName returns the receiver type name of a method declaration
// (behind any pointer), or "" for plain functions.
func recvDeclName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	// Generic receivers (IndexExpr) do not occur in this module.
	return ""
}
