package repro

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs/span"
	"repro/internal/op"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Editor is a collaborating site: it keeps a local replica, applies local
// edits immediately (the paper's high-responsiveness requirement — no
// network on the local path), and reconciles remote operations in a
// background goroutine.
type Editor struct {
	conn transport.Conn
	snd  *transport.Sender

	mu       sync.Mutex
	client   *core.Client
	err      error
	closed   bool
	readOnly bool

	// Local cursor/selection, transformed through every operation
	// (selection.go).
	sel    Selection
	hasSel bool

	// Remote participants' selections (presence.go).
	remoteSel  map[int]Selection
	onPresence func(site int, sel Selection, active bool)

	onChange func(text string)

	// spans, when set (TraceSpans), starts a lifecycle span at generation
	// and finishes it at the remote end of the loop: a sampled local edit
	// carries its trace context to the notifier in the wire trailer, and a
	// relayed operation arriving back closes the span at remote_integrate.
	spans atomic.Pointer[span.Tracer]

	wg sync.WaitGroup
}

// Connect joins a session over an established connection. site requests a
// specific id; pass 0 to let the notifier assign one. The call blocks until
// the snapshot handshake completes.
func Connect(conn transport.Conn, site int, opts ...core.ClientOption) (*Editor, error) {
	return connect(conn, wire.JoinReq{Site: site, ReadOnly: false}, false, opts...)
}

// ConnectViewer joins as a read-only viewer: the editor tracks the document
// and presence like any participant, but every editing method returns
// ErrReadOnly and the notifier enforces the same server-side.
func ConnectViewer(conn transport.Conn, site int, opts ...core.ClientOption) (*Editor, error) {
	return connect(conn, wire.JoinReq{Site: site, ReadOnly: true}, true, opts...)
}

// ConnectSession joins the named document on a multi-session notifier
// (internal/server). The empty name is the default document, making this
// equivalent to Connect against such a server; single-session notifiers do
// not understand the message and will drop the connection.
func ConnectSession(conn transport.Conn, session string, site int, opts ...core.ClientOption) (*Editor, error) {
	return connect(conn, wire.SessionJoinReq{Session: session, Site: site}, false, opts...)
}

func connect(conn transport.Conn, join wire.Msg, readOnly bool, opts ...core.ClientOption) (*Editor, error) {
	if err := conn.Send(join); err != nil {
		return nil, fmt.Errorf("repro: join: %w", err)
	}
	m, err := conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("repro: join: %w", err)
	}
	resp, ok := m.(wire.JoinResp)
	if !ok {
		return nil, fmt.Errorf("repro: expected snapshot, got %T", m)
	}
	e := &Editor{
		conn:     conn,
		snd:      transport.NewSender(conn, ErrClosed),
		readOnly: readOnly,
		client: core.NewClient(resp.Site, resp.Text,
			append([]core.ClientOption{core.WithClientResume(resp.LocalOps)}, opts...)...),
	}
	e.wg.Add(1)
	go e.readLoop()
	return e, nil
}

// TraceSpans mounts the op-lifecycle tracer on this editor: locally
// generated operations sampled by tr carry their trace context on the wire
// (stamping generate/send_enqueue/drain/encode/write here), and relayed
// operations destined for this editor stamp remote_integrate, completing
// spans the same tracer opened — in-process experiments share one tracer
// between client and server to see all thirteen stages.
func (e *Editor) TraceSpans(tr *span.Tracer) {
	e.spans.Store(tr)
	e.snd.SetTracer(tr)
}

// Site returns the site id assigned by the notifier.
func (e *Editor) Site() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.client.Site()
}

// Text returns the current local replica.
func (e *Editor) Text() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.client.Text()
}

// Len returns the replica length in runes.
func (e *Editor) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.client.DocLen()
}

// SV returns the current 2-element state vector — the entirety of this
// site's clock state.
func (e *Editor) SV() (fromServer, local uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	sv := e.client.SV()
	return sv.FromServer, sv.Local
}

// OnChange registers a callback invoked (on the editor's goroutines, without
// internal locks held) after every change to the replica, local or remote.
func (e *Editor) OnChange(fn func(text string)) {
	e.mu.Lock()
	e.onChange = fn
	e.mu.Unlock()
}

// Err returns the sticky background error, if any (nil after a clean Close).
func (e *Editor) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Insert applies Insert[text, pos] locally and propagates it.
func (e *Editor) Insert(pos int, text string) error {
	return e.edit(func(c *core.Client) (core.ClientMsg, error) {
		return c.Insert(pos, text)
	})
}

// Delete applies Delete[count, pos] locally and propagates it.
func (e *Editor) Delete(pos, count int) error {
	return e.edit(func(c *core.Client) (core.ClientMsg, error) {
		return c.Delete(pos, count)
	})
}

// Replace applies a combined delete+insert at pos — the common "type over a
// selection" action — as a single atomic operation.
func (e *Editor) Replace(pos, count int, text string) error {
	return e.edit(func(c *core.Client) (core.ClientMsg, error) {
		o, err := op.NewReplace(c.DocLen(), pos, count, text)
		if err != nil {
			return core.ClientMsg{}, err
		}
		return c.Generate(o)
	})
}

// SetText replaces the whole document with text, expressed as a minimal
// single-region edit (common prefix/suffix preserved) so concurrent remote
// edits outside the changed region survive — how an editor integrates an
// external reload or paste-over-all. A no-change SetText is a no-op.
func (e *Editor) SetText(text string) error {
	err := e.edit(func(c *core.Client) (core.ClientMsg, error) {
		d := op.Diff(c.Text(), text)
		if d.IsNoop() {
			return core.ClientMsg{}, errNoopEdit
		}
		return c.Generate(d)
	})
	if errors.Is(err, errNoopEdit) {
		return nil
	}
	return err
}

// errNoopEdit marks a SetText that changes nothing; swallowed by SetText.
var errNoopEdit = errors.New("repro: no change")

// Undo reverses this editor's most recent local edit (including a previous
// undo, giving redo). It requires the session to have been joined with
// core.WithClientUndo.
func (e *Editor) Undo() error {
	return e.edit(func(c *core.Client) (core.ClientMsg, error) {
		return c.Undo()
	})
}

func (e *Editor) edit(gen func(*core.Client) (core.ClientMsg, error)) error {
	if e.readOnly {
		return ErrReadOnly
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.err != nil {
		err := e.err
		e.mu.Unlock()
		return err
	}
	m, err := gen(e.client)
	if err != nil {
		e.mu.Unlock()
		return err
	}
	e.transformSelection(m.Op, true)
	e.advanceRemoteSelections(m.Op)
	ctx := e.spans.Load().Start(m.Ref.Site, m.Ref.Seq)
	// Enqueued under the lock so concurrent edits leave in generation
	// order — the FIFO property the clocks rely on. The queue never
	// blocks, so the local path stays as fast as a single-user editor.
	sendErr := e.snd.Enqueue(wire.ClientOp{From: m.From, TS: m.TS, Ref: m.Ref, Op: m.Op, Trace: ctx})
	var text string
	fn := e.onChange
	if fn != nil {
		text = e.client.Text()
	}
	e.mu.Unlock()

	if fn != nil {
		fn(text)
	}
	if sendErr != nil {
		e.fail(fmt.Errorf("repro: propagate: %w", sendErr))
		return sendErr
	}
	return nil
}

// Close leaves the session and tears the connection down.
func (e *Editor) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	site := e.client.Site()
	e.mu.Unlock()

	_ = e.snd.Enqueue(wire.Leave{Site: site})
	e.snd.Close() // drains the queue, including the Leave
	_ = e.conn.Close()
	e.wg.Wait()
	return nil
}

func (e *Editor) fail(err error) {
	e.mu.Lock()
	if e.err == nil && !e.closed {
		e.err = err
	}
	e.mu.Unlock()
}

func (e *Editor) readLoop() {
	defer e.wg.Done()
	for {
		m, err := e.conn.Recv()
		if err != nil {
			e.mu.Lock()
			closed := e.closed
			e.mu.Unlock()
			if !closed {
				e.fail(fmt.Errorf("repro: connection lost: %w", err))
			}
			return
		}
		switch v := m.(type) {
		case wire.ServerPresence:
			e.mu.Lock()
			cb := e.handlePresence(v)
			e.mu.Unlock()
			if cb != nil {
				cb()
			}
		case wire.ServerOp:
			if !e.integrate(v) {
				return
			}
		case wire.OpBatch:
			// Decode fan-out of a coalesced frame: integrate in order, with
			// the same per-operation callbacks a frame-per-op stream gives.
			for _, so := range v.Ops {
				if !e.integrate(so) {
					return
				}
			}
		default:
			e.fail(fmt.Errorf("repro: unexpected %T from notifier", m))
			return
		}
	}
}

// integrate applies one relayed operation, reporting false on failure
// (after recording the sticky error).
func (e *Editor) integrate(so wire.ServerOp) bool {
	e.mu.Lock()
	res, err := e.client.Integrate(core.ServerMsg{
		To: so.To, Op: so.Op, TS: so.TS, Ref: so.Ref, OrigRef: so.OrigRef,
	})
	var text string
	var fn func(string)
	if err == nil {
		// A site that only reads still tells the notifier how far it has
		// read, or it would pin the notifier's history buffer for as long as
		// it stays quiet. Enqueued under the lock like an edit, so the T1s on
		// the link stay in order; a refused enqueue means the link is going
		// down, which the read loop reports.
		if t1, due := e.client.TakeAck(); due {
			_ = e.snd.Enqueue(wire.Ack{From: e.client.Site(), T1: t1})
		}
		e.transformSelection(res.Executed, false)
		e.advanceRemoteSelections(res.Executed)
		// Materialize the document only when someone is listening: Text()
		// walks the whole rope, and with no onChange registered that walk
		// would dominate the integrate path at large documents.
		if fn = e.onChange; fn != nil {
			text = e.client.Text()
		}
	}
	e.mu.Unlock()
	if err != nil {
		e.fail(fmt.Errorf("repro: integrate: %w", err))
		return false
	}
	// Close the loop: if this editor's tracer opened (or adopted) the span,
	// the relayed copy arriving here is the last observable stage.
	e.spans.Load().FinishAt(so.Trace, span.StageRemoteIntegrate)
	if fn != nil {
		fn(text)
	}
	return true
}
