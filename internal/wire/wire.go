// Package wire defines the binary protocol of the group editor and the
// byte-accounting helpers behind the communication-overhead experiments
// (EXPERIMENTS.md E3/E9).
//
// Every message is a length-prefixed frame:
//
//	frame   := length(uvarint) body
//	body    := type(1 byte) payload
//
// All integers are unsigned varints, so a compressed 2-element timestamp
// costs exactly two varints (2 bytes for small sessions) — the paper's
// "minimum of two integers" (§6) — while a full N-element vector clock costs
// N varints.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/obs/span"
	"repro/internal/op"
	"repro/internal/vclock"
)

// Protocol limits. Frames larger than MaxFrame are rejected to keep a
// corrupt or malicious peer from ballooning memory.
const (
	MaxFrame = 16 << 20 // 16 MiB
)

// Wire errors.
var (
	// ErrFrameTooLarge indicates a frame length beyond MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame too large")
	// ErrCorrupt indicates a structurally invalid message.
	ErrCorrupt = errors.New("wire: corrupt message")
)

// MsgType tags the frame body.
type MsgType byte

// Message types.
const (
	// TClientOp is a client → notifier operation.
	TClientOp MsgType = 1
	// TServerOp is a notifier → client operation.
	TServerOp MsgType = 2
	// TJoinReq asks the notifier to admit a site.
	TJoinReq MsgType = 3
	// TJoinResp carries the admission snapshot.
	TJoinResp MsgType = 4
	// TLeave announces an orderly departure.
	TLeave MsgType = 5
	// TPresence is a client → notifier cursor/selection report.
	TPresence MsgType = 6
	// TServerPresence is a notifier → client presence relay.
	TServerPresence MsgType = 7
	// TSessionJoinReq asks a multi-session notifier to admit a site into a
	// named document session.
	TSessionJoinReq MsgType = 8
	// TOpBatch carries several consecutive notifier → client operations in
	// one frame, amortizing framing and flushes across a keystroke burst.
	TOpBatch MsgType = 9
	// TAck is a client → notifier bare acknowledgement: the T1 of a site that
	// has integrated broadcasts but sent nothing carrying a timestamp since.
	TAck MsgType = 10

	// lastType is the highest assigned message type; the per-type frame
	// counters and their catalogue rows span TClientOp … lastType.
	lastType = TAck
)

// traceBit marks an op-carrying frame (TClientOp, TServerOp, TOpBatch) that
// ends in a trace trailer: the span context of a sampled op, riding the op
// it describes. Untraced messages never set the bit and encode byte-for-byte
// as before the trailer existed, so pre-trailer peers interoperate for the
// overwhelmingly common unsampled case; other message types reject the bit
// as an unknown type.
const traceBit MsgType = 0x80

// MaxBatchOps caps how many operations one TOpBatch frame may carry, keeping
// every batch frame far below MaxFrame regardless of queue depth.
const MaxBatchOps = 256

// Msg is a decoded protocol message.
type Msg interface{ msgType() MsgType }

// ClientOp carries one operation from a client to the notifier. Trace, when
// sampled, rides the wire as an optional trailer (traceBit); the zero value
// costs no bytes.
type ClientOp struct {
	From  int
	TS    core.Timestamp
	Ref   causal.OpRef
	Op    *op.Op
	Trace span.Context
}

func (ClientOp) msgType() MsgType { return TClientOp }

// ServerOp carries one operation from the notifier to a client. Trace, when
// sampled, rides the wire as an optional trailer (traceBit).
type ServerOp struct {
	To      int
	TS      core.Timestamp
	Ref     causal.OpRef
	OrigRef causal.OpRef
	Op      *op.Op
	Trace   span.Context
}

func (ServerOp) msgType() MsgType { return TServerOp }

// OpBatch carries several consecutive ServerOps in one frame. Semantically it
// is exactly the sequence of its operations in order; the batch exists only
// so bursts amortize the length prefix, the type byte, and — decisive on the
// TCP path — the per-frame flush and syscall.
type OpBatch struct {
	Ops []ServerOp
}

func (OpBatch) msgType() MsgType { return TOpBatch }

// JoinReq asks for admission. Site 0 requests automatic id assignment.
// ReadOnly admits the site as a viewer: it receives every operation and may
// share presence, but the notifier disconnects it if it ever sends an
// operation.
type JoinReq struct {
	Site     int
	ReadOnly bool
}

func (JoinReq) msgType() MsgType { return TJoinReq }

// SessionJoinReq asks for admission into the named session of a sharded
// notifier (internal/server). The empty session name is the default
// document, so a SessionJoinReq{} is equivalent to a JoinReq{}; site and
// ReadOnly mean the same as in JoinReq. The reply is an ordinary JoinResp.
type SessionJoinReq struct {
	Session  string
	Site     int
	ReadOnly bool
}

func (SessionJoinReq) msgType() MsgType { return TSessionJoinReq }

// JoinResp carries the snapshot a joining site initializes from. LocalOps
// resumes the joiner's local operation counter (nonzero on rejoin).
type JoinResp struct {
	Site     int
	Text     string
	LocalOps uint64
}

func (JoinResp) msgType() MsgType { return TJoinResp }

// Leave announces that a site is departing.
type Leave struct {
	Site int
}

func (Leave) msgType() MsgType { return TLeave }

// Ack reports that site From has integrated the first T1 broadcasts sent to
// it — the T1 its next operation would carry, sent on its own by a site that
// has had nothing else to say for a while, so the notifier can garbage-collect
// its history buffer under a read-mostly audience. Constant size, never
// required, never journaled.
type Ack struct {
	From int
	T1   uint64
}

func (Ack) msgType() MsgType { return TAck }

// Presence is a client → notifier cursor/selection report in local
// coordinates, stamped with the sender's current (un-incremented) state
// vector.
type Presence struct {
	From   int
	TS     core.Timestamp
	Anchor int
	Head   int
	Active bool
}

func (Presence) msgType() MsgType { return TPresence }

// ServerPresence relays a presence report to one client in server-context
// coordinates.
type ServerPresence struct {
	To     int
	From   int
	Anchor int
	Head   int
	Active bool
}

func (ServerPresence) msgType() MsgType { return TServerPresence }

// typeByte returns a message's frame type byte: its MsgType, with traceBit
// set on op-carrying messages whose span context is sampled.
func typeByte(m Msg) byte {
	t := byte(m.msgType())
	switch v := m.(type) {
	case ClientOp:
		if v.Trace.Sampled() {
			t |= byte(traceBit)
		}
	case ServerOp:
		if v.Trace.Sampled() {
			t |= byte(traceBit)
		}
	case OpBatch:
		for _, so := range v.Ops {
			if so.Trace.Sampled() {
				t |= byte(traceBit)
				break
			}
		}
	}
	return t
}

// Append encodes a message body (type byte + payload) onto b.
func Append(b []byte, m Msg) ([]byte, error) {
	b = append(b, typeByte(m))
	switch v := m.(type) {
	case ClientOp:
		b = binary.AppendUvarint(b, uint64(v.From))
		b = appendTimestamp(b, v.TS)
		b = appendRef(b, v.Ref)
		b, err := AppendOp(b, v.Op)
		if err == nil && v.Trace.Sampled() {
			b = appendTrace(b, v.Trace)
		}
		return b, err
	case ServerOp:
		b = appendServerOpHead(b, v.To, v.TS)
		b, err := appendServerOpTail(b, v.Ref, v.OrigRef, v.Op)
		if err == nil && v.Trace.Sampled() {
			b = appendTrace(b, v.Trace)
		}
		return b, err
	case OpBatch:
		if len(v.Ops) == 0 {
			return nil, fmt.Errorf("wire: empty batch: %w", ErrCorrupt)
		}
		traced := false
		for _, so := range v.Ops {
			if so.Trace.Sampled() {
				traced = true
				break
			}
		}
		b = binary.AppendUvarint(b, uint64(len(v.Ops)))
		var err error
		for _, so := range v.Ops {
			b = appendServerOpHead(b, so.To, so.TS)
			if b, err = appendServerOpTail(b, so.Ref, so.OrigRef, so.Op); err != nil {
				return nil, err
			}
			if traced {
				b = appendBatchTrace(b, so.Trace)
			}
		}
		return b, nil
	case JoinReq:
		b = binary.AppendUvarint(b, uint64(v.Site))
		return append(b, boolByte(v.ReadOnly)), nil
	case SessionJoinReq:
		b = appendString(b, v.Session)
		b = binary.AppendUvarint(b, uint64(v.Site))
		return append(b, boolByte(v.ReadOnly)), nil
	case JoinResp:
		b = binary.AppendUvarint(b, uint64(v.Site))
		b = appendString(b, v.Text)
		return binary.AppendUvarint(b, v.LocalOps), nil
	case Leave:
		return binary.AppendUvarint(b, uint64(v.Site)), nil
	case Ack:
		b = binary.AppendUvarint(b, uint64(v.From))
		return binary.AppendUvarint(b, v.T1), nil
	case Presence:
		b = binary.AppendUvarint(b, uint64(v.From))
		b = appendTimestamp(b, v.TS)
		b = binary.AppendUvarint(b, uint64(v.Anchor))
		b = binary.AppendUvarint(b, uint64(v.Head))
		return append(b, boolByte(v.Active)), nil
	case ServerPresence:
		b = binary.AppendUvarint(b, uint64(v.To))
		b = binary.AppendUvarint(b, uint64(v.From))
		b = binary.AppendUvarint(b, uint64(v.Anchor))
		b = binary.AppendUvarint(b, uint64(v.Head))
		return append(b, boolByte(v.Active)), nil
	default:
		return nil, fmt.Errorf("wire: unknown message %T: %w", m, ErrCorrupt)
	}
}

// Decode parses a message body produced by Append.
func Decode(body []byte) (Msg, error) {
	if len(body) == 0 {
		return nil, fmt.Errorf("wire: empty body: %w", ErrCorrupt)
	}
	d := &decoder{b: body[1:]}
	traced := MsgType(body[0])&traceBit != 0
	switch MsgType(body[0]) {
	case TClientOp, TClientOp | traceBit:
		m := ClientOp{}
		m.From = int(d.uvarint())
		m.TS = d.timestamp()
		m.Ref = d.ref()
		m.Op = d.op()
		if traced {
			m.Trace = d.trace()
		}
		return m, d.finish()
	case TServerOp, TServerOp | traceBit:
		m := ServerOp{}
		d.serverOp(&m)
		if traced {
			m.Trace = d.trace()
		}
		return m, d.finish()
	case TOpBatch, TOpBatch | traceBit:
		n := d.uvarint()
		if d.err == nil && (n == 0 || n > uint64(len(d.b))) {
			d.fail() // each op costs well over one byte
		}
		if d.err != nil {
			return nil, d.err
		}
		m := OpBatch{Ops: make([]ServerOp, n)}
		for i := range m.Ops {
			d.serverOp(&m.Ops[i])
			if traced {
				m.Ops[i].Trace = d.batchTrace()
			}
			if d.err != nil {
				return nil, d.err
			}
		}
		return m, d.finish()
	case TJoinReq:
		m := JoinReq{Site: int(d.uvarint())}
		m.ReadOnly = d.boolByte()
		return m, d.finish()
	case TSessionJoinReq:
		m := SessionJoinReq{Session: d.str()}
		m.Site = int(d.uvarint())
		m.ReadOnly = d.boolByte()
		return m, d.finish()
	case TJoinResp:
		m := JoinResp{Site: int(d.uvarint())}
		m.Text = d.str()
		m.LocalOps = d.uvarint()
		return m, d.finish()
	case TLeave:
		m := Leave{Site: int(d.uvarint())}
		return m, d.finish()
	case TAck:
		m := Ack{From: int(d.uvarint())}
		m.T1 = d.uvarint()
		return m, d.finish()
	case TPresence:
		m := Presence{From: int(d.uvarint())}
		m.TS = d.timestamp()
		m.Anchor = int(d.uvarint())
		m.Head = int(d.uvarint())
		m.Active = d.boolByte()
		return m, d.finish()
	case TServerPresence:
		m := ServerPresence{To: int(d.uvarint())}
		m.From = int(d.uvarint())
		m.Anchor = int(d.uvarint())
		m.Head = int(d.uvarint())
		m.Active = d.boolByte()
		return m, d.finish()
	default:
		return nil, fmt.Errorf("wire: unknown type %d: %w", body[0], ErrCorrupt)
	}
}

// encodeBuf is a reusable encode scratch buffer; pooled so steady-state
// framing allocates nothing.
type encodeBuf struct{ b []byte }

var encodePool = sync.Pool{New: func() any { return new(encodeBuf) }}

// AppendFrame encodes m as a complete length-prefixed frame appended onto
// dst. The body is staged through a pooled scratch buffer (its length must
// precede it), so the only growth is dst itself.
func AppendFrame(dst []byte, m Msg) ([]byte, error) {
	eb := encodePool.Get().(*encodeBuf)
	body, err := Append(eb.b[:0], m)
	if err == nil {
		dst = binary.AppendUvarint(dst, uint64(len(body)))
		dst = append(dst, body...)
		countFrame(m.msgType(), UvarintLen(uint64(len(body)))+len(body))
		switch v := m.(type) {
		case ServerOp:
			encOps.Add(1)
		case OpBatch:
			encOps.Add(uint64(len(v.Ops)))
		}
	}
	eb.b = body[:0]
	encodePool.Put(eb)
	return dst, err
}

// ReadFrame reads one length-prefixed frame from r and decodes it. A frame
// that fits in r's buffer is decoded in place — peeked, decoded, discarded —
// so reading keeps no scratch of its own; Decode copies everything it keeps
// (TestDecodeDoesNotAlias). A larger frame, such as a document snapshot,
// gets a one-off allocation that is garbage once decoded.
func ReadFrame(r *bufio.Reader) (Msg, error) {
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if size > MaxFrame {
		return nil, fmt.Errorf("wire: %d bytes: %w", size, ErrFrameTooLarge)
	}
	if size > uint64(r.Size()) {
		body := make([]byte, size)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, err
		}
		return Decode(body)
	}
	body, err := r.Peek(int(size))
	if err != nil {
		if err == io.EOF && len(body) > 0 {
			err = io.ErrUnexpectedEOF // what io.ReadFull reports for a cut body
		}
		return nil, err
	}
	m, err := Decode(body)
	_, _ = r.Discard(len(body))
	return m, err
}

// --- field codecs ---------------------------------------------------------

// serverOpEncodes counts ServerOp body (tail) encodings process-wide. The
// broadcast benchmarks and tests read it to verify the encode-once property:
// one Receive fanning out to N destinations must raise it by exactly 1.
var serverOpEncodes atomic.Uint64

// ServerOpEncodes returns the process-wide count of ServerOp body encodings.
func ServerOpEncodes() uint64 { return serverOpEncodes.Load() }

// appendServerOpHead encodes the per-destination part of a ServerOp payload:
// the destination site and its compressed 2-integer timestamp (§6).
func appendServerOpHead(b []byte, to int, ts core.Timestamp) []byte {
	b = binary.AppendUvarint(b, uint64(to))
	return appendTimestamp(b, ts)
}

// appendServerOpTail encodes the destination-independent part — refs and the
// operation itself. On a broadcast this is identical for every destination,
// which is what makes the encode-once fan-out (Broadcast) possible.
func appendServerOpTail(b []byte, ref, origRef causal.OpRef, o *op.Op) ([]byte, error) {
	serverOpEncodes.Add(1)
	b = appendRef(b, ref)
	b = appendRef(b, origRef)
	return AppendOp(b, o)
}

// appendTrace encodes a single-op trace trailer: origin site, origin seq,
// flags. Only called for sampled contexts.
func appendTrace(b []byte, c span.Context) []byte {
	b = binary.AppendUvarint(b, uint64(c.Site))
	b = binary.AppendUvarint(b, c.Seq)
	return append(b, c.Flags)
}

// TraceSize returns the on-wire cost of a context's trailer: 0 when
// unsampled, else site + seq varints and the flags byte.
func TraceSize(c span.Context) int {
	if !c.Sampled() {
		return 0
	}
	return UvarintLen(uint64(c.Site)) + UvarintLen(c.Seq) + 1
}

// appendBatchTrace encodes one op's slot in a traced batch: a flags byte
// (0 = this op untraced), then site and seq for sampled ops. Flags without
// the sampled bit are canonicalized to 0 so re-encoding is stable.
func appendBatchTrace(b []byte, c span.Context) []byte {
	if !c.Sampled() {
		return append(b, 0)
	}
	b = append(b, c.Flags)
	b = binary.AppendUvarint(b, uint64(c.Site))
	return binary.AppendUvarint(b, c.Seq)
}

// batchTraceSize returns the encoded size of one op's slot in a traced batch.
func batchTraceSize(c span.Context) int {
	if !c.Sampled() {
		return 1
	}
	return 1 + UvarintLen(uint64(c.Site)) + UvarintLen(c.Seq)
}

func appendTimestamp(b []byte, ts core.Timestamp) []byte {
	b = binary.AppendUvarint(b, ts.T1)
	return binary.AppendUvarint(b, ts.T2)
}

func appendRef(b []byte, r causal.OpRef) []byte {
	b = binary.AppendUvarint(b, uint64(r.Site))
	return binary.AppendUvarint(b, r.Seq)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendOp encodes an operation's component list.
func AppendOp(b []byte, o *op.Op) ([]byte, error) {
	if o == nil {
		return nil, fmt.Errorf("wire: nil op: %w", ErrCorrupt)
	}
	comps := o.Comps()
	b = binary.AppendUvarint(b, uint64(len(comps)))
	for _, c := range comps {
		b = append(b, byte(c.Kind))
		if c.Kind == op.KInsert {
			b = appendString(b, c.S)
		} else {
			b = binary.AppendUvarint(b, uint64(c.N))
		}
	}
	return b, nil
}

// AppendVC encodes a full vector clock (baseline protocol; used by the
// overhead experiments and the p2p substrate).
func AppendVC(b []byte, v vclock.VC) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	for _, x := range v {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

// DecodeVC parses AppendVC output, returning the clock and remaining bytes.
func DecodeVC(b []byte) (vclock.VC, []byte, error) {
	d := &decoder{b: b}
	n := d.uvarint()
	if d.err != nil || n > MaxFrame {
		return nil, nil, fmt.Errorf("wire: bad vc length: %w", ErrCorrupt)
	}
	v := vclock.New(int(n))
	for i := range v {
		v[i] = d.uvarint()
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return v, d.b, nil
}

// AppendSKEntries encodes a Singhal–Kshemkalyani differential timestamp.
func AppendSKEntries(b []byte, es []vclock.Entry) []byte {
	b = binary.AppendUvarint(b, uint64(len(es)))
	for _, e := range es {
		b = binary.AppendUvarint(b, uint64(e.Index))
		b = binary.AppendUvarint(b, e.Value)
	}
	return b
}

// DecodeSKEntries parses AppendSKEntries output.
func DecodeSKEntries(b []byte) ([]vclock.Entry, []byte, error) {
	d := &decoder{b: b}
	n := d.uvarint()
	if d.err != nil || n > MaxFrame {
		return nil, nil, fmt.Errorf("wire: bad entry count: %w", ErrCorrupt)
	}
	es := make([]vclock.Entry, n)
	for i := range es {
		es[i].Index = int(d.uvarint())
		es[i].Value = d.uvarint()
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return es, d.b, nil
}

// UvarintLen returns the encoded size of v in bytes.
func UvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// TimestampSize returns the on-wire cost of a compressed timestamp — the
// quantity the paper reduces to a constant (§6).
func TimestampSize(ts core.Timestamp) int {
	return UvarintLen(ts.T1) + UvarintLen(ts.T2)
}

// --- decoder ---------------------------------------------------------------

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) timestamp() core.Timestamp {
	return core.Timestamp{T1: d.uvarint(), T2: d.uvarint()}
}

func (d *decoder) ref() causal.OpRef {
	return causal.OpRef{Site: int(d.uvarint()), Seq: d.uvarint()}
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// serverOp parses one ServerOp payload (head + tail) into m.
func (d *decoder) serverOp(m *ServerOp) {
	m.To = int(d.uvarint())
	m.TS = d.timestamp()
	m.Ref = d.ref()
	m.OrigRef = d.ref()
	m.Op = d.op()
}

// trace parses a single-op trace trailer. The flags byte must carry the
// sampled bit — a trailer describing an unsampled op has no reason to exist
// and would not re-encode canonically.
func (d *decoder) trace() span.Context {
	c := span.Context{Site: int(d.uvarint()), Seq: d.uvarint()}
	c.Flags = d.byteVal()
	if d.err == nil && c.Flags&span.FlagSampled == 0 {
		d.fail()
	}
	return c
}

// batchTrace parses one op's slot in a traced batch: flags byte 0 means the
// op is untraced; any other value must include the sampled bit and is
// followed by site and seq.
func (d *decoder) batchTrace() span.Context {
	flags := d.byteVal()
	if flags == 0 || d.err != nil {
		return span.Context{}
	}
	if flags&span.FlagSampled == 0 {
		d.fail()
		return span.Context{}
	}
	return span.Context{Site: int(d.uvarint()), Seq: d.uvarint(), Flags: flags}
}

func (d *decoder) byteVal() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) boolByte() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 {
		d.fail()
		return false
	}
	v := d.b[0]
	d.b = d.b[1:]
	if v > 1 {
		d.fail()
		return false
	}
	return v == 1
}

func (d *decoder) op() *op.Op {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) { // each comp takes at least one byte
		d.fail()
		return nil
	}
	comps := make([]op.Comp, 0, n)
	for i := uint64(0); i < n; i++ {
		if d.err != nil || len(d.b) == 0 {
			d.fail()
			return nil
		}
		kind := op.Kind(d.b[0])
		d.b = d.b[1:]
		switch kind {
		case op.KInsert:
			comps = append(comps, op.Comp{Kind: kind, S: d.str()})
		case op.KRetain, op.KDelete:
			comps = append(comps, op.Comp{Kind: kind, N: int(d.uvarint())})
		default:
			d.fail()
			return nil
		}
	}
	if d.err != nil {
		return nil
	}
	o, err := op.FromComps(comps)
	if err != nil {
		d.err = fmt.Errorf("wire: %v: %w", err, ErrCorrupt)
		return nil
	}
	return o
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes: %w", len(d.b), ErrCorrupt)
	}
	return nil
}
