// Package repro is a real-time group editor with compressed vector clocks,
// reproducing "Capturing Causality by Compressed Vector Clock in Real-Time
// Group Editors" (C. Sun and W. Cai, IPPS 2002).
//
// The system is a star: a central Notifier (the paper's site 0) relays
// operations between Editors (sites 1..N). Every editor keeps only a
// 2-element state vector and every message carries a constant 2-integer
// timestamp regardless of N, because the notifier transforms each operation
// before relaying it (operational transformation), collapsing the
// N-dimensional causality relation among operations to two dimensions.
//
// Quick start:
//
//	ln := transport.NewMemListener()        // or transport.ListenTCP(...)
//	nt, _ := repro.Serve(ln, "hello world")
//	conn, _ := ln.Dial()
//	ed, _ := repro.Connect(conn, 0)         // 0 = auto-assign a site id
//	ed.Insert(5, ",")                       // applied locally at once,
//	                                        // propagated in the background
//
// The heavy lifting lives in internal packages: internal/core (the clock
// scheme and engines), internal/op (operational transformation),
// internal/doc (rope/gap-buffer documents), internal/wire and
// internal/transport (protocol and links), internal/sim (deterministic
// simulation), internal/vclock and internal/p2p (the baselines the paper
// compares against), internal/causal (the ground-truth oracle).
package repro

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/transport"
)

// ErrClosed is returned by operations on a closed Notifier or Editor.
var ErrClosed = errors.New("repro: closed")

// ErrReadOnly is returned by editing methods of a viewer (ConnectViewer).
var ErrReadOnly = errors.New("repro: read-only viewer")

// Notifier is the running site-0 service: it owns the authoritative
// document copy, admits editors, transforms and relays their operations.
//
// It is the one-document face of the session server (internal/server): a
// Manager holding the default session "" behind a Service on the listener.
// An editor's plain join (Connect) lands in that session; the accept loop,
// the per-connection protocol and the journaling are the Service's and the
// Session's — there is no second implementation here.
type Notifier struct {
	mgr  *server.Manager
	svc  *server.Service
	sess *server.Session
}

// Serve starts a notifier for the given initial document on a listener and
// returns immediately; the accept loop runs in the background.
func Serve(ln transport.Listener, initial string, opts ...core.ServerOption) (*Notifier, error) {
	return serve(ln, server.WithInitialText(initial), server.WithEngineOptions(opts...))
}

// ServeWithJournal is Serve with crash-consistent persistence: every state
// transition is appended to journalPath before it takes effect, and if the
// file already holds a previous session the notifier is rebuilt from it
// (surviving clients reconnect with their site ids and resume — their local
// counters continue where the journal shows them).
func ServeWithJournal(ln transport.Listener, initial, journalPath string, opts ...core.ServerOption) (*Notifier, error) {
	return serve(ln, server.WithInitialText(initial), server.WithEngineOptions(opts...),
		server.WithJournal(server.JournalFiles(journalPath)))
}

func serve(ln transport.Listener, mopts ...server.ManagerOption) (*Notifier, error) {
	mgr := server.NewManager(mopts...)
	// The document exists from the start, not from the first join: Text and
	// Sites answer at once, and a journal that cannot be recovered fails
	// here rather than at the first connection.
	sess, err := mgr.GetOrCreate("")
	if err != nil {
		return nil, err
	}
	return &Notifier{mgr: mgr, svc: server.Serve(ln, mgr), sess: sess}, nil
}

// String summarizes the notifier for status logs.
func (n *Notifier) String() string {
	st := n.sess.Stats()
	return fmt.Sprintf("notifier addr=%s sites=%d ops=%d doc_runes=%d queue_highwater=%d",
		n.Addr(), st.Sites, st.Ops, st.Doc, n.QueueHighWater())
}

// Addr returns the listener's address.
func (n *Notifier) Addr() string { return n.svc.Addr() }

// Text returns the notifier's current copy of the document.
func (n *Notifier) Text() string { return n.sess.Text() }

// Sites returns the ids of currently joined sites.
func (n *Notifier) Sites() []int { return n.sess.Sites() }

// Counts reports, per joined site, how many operations the notifier has
// received from it and sent to it. Tests use this to detect quiescence
// exactly instead of sleeping.
func (n *Notifier) Counts() (received, sent map[int]uint64) { return n.sess.Counts() }

// QueueHighWater reports the deepest any peer's outbound queue has been —
// how much backpressure the slowest connected client has exerted.
func (n *Notifier) QueueHighWater() int { return n.svc.QueueHighWater() }

// Close shuts the service down: stops accepting, closes every connection,
// waits for the connection handlers to finish (their departures are the last
// journal records), then stops the session and closes its journal, whose
// close error it returns.
func (n *Notifier) Close() error {
	_ = n.svc.Close()
	return n.mgr.Close()
}
