package wire

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Frame-encode accounting, process-wide like serverOpEncodes: every frame
// laid down by AppendFrame or the broadcast fast path
// (AppendFrames) counts once, under its wire type, together with its full
// on-the-wire size (length prefix included). Journaling and byte-accounting
// harnesses use the body codec (Append) directly and deliberately do not
// count here — these counters mean "bytes toward peers".
var (
	encFrames [lastType + 1]atomic.Uint64
	encBytes  [lastType + 1]atomic.Uint64

	// encOps counts server operations framed toward destinations: a
	// TServerOp frame adds 1, a TOpBatch frame of K operations adds K. The
	// ratio encOps / frames(op_batch+server_op) is the realized batching
	// factor.
	encOps atomic.Uint64
)

// countFrame records one encoded frame of type t spanning n wire bytes.
func countFrame(t MsgType, n int) {
	if int(t) < len(encFrames) {
		encFrames[t].Add(1)
		encBytes[t].Add(uint64(n))
	}
}

// EncodedFrames returns the process-wide count of frames encoded with type t.
func EncodedFrames(t MsgType) uint64 {
	if int(t) >= len(encFrames) {
		return 0
	}
	return encFrames[t].Load()
}

// EncodedBytes returns the process-wide wire bytes of frames of type t.
func EncodedBytes(t MsgType) uint64 {
	if int(t) >= len(encBytes) {
		return 0
	}
	return encBytes[t].Load()
}

// OpsSent returns the process-wide count of server ops framed toward
// destinations (batch-aware; see encOps).
func OpsSent() uint64 { return encOps.Load() }

// TypeName returns the catalogue name of a message type (DESIGN.md §12).
func TypeName(t MsgType) string {
	switch t {
	case TClientOp:
		return "client_op"
	case TServerOp:
		return "server_op"
	case TJoinReq:
		return "join_req"
	case TJoinResp:
		return "join_resp"
	case TLeave:
		return "leave"
	case TPresence:
		return "presence"
	case TServerPresence:
		return "server_presence"
	case TSessionJoinReq:
		return "session_join_req"
	case TOpBatch:
		return "op_batch"
	case TAck:
		return "ack"
	}
	return "unknown"
}

// RegisterMetrics exposes the package's process-wide counters on r:
// wire.serverop_encodes, wire.ops_sent, and wire.frames.<type> /
// wire.bytes.<type> for every message type.
func RegisterMetrics(r *obs.Registry) {
	r.CounterFunc(obs.CWireEncodes, func() int64 { return int64(ServerOpEncodes()) })
	r.CounterFunc(obs.CWireOps, func() int64 { return int64(OpsSent()) })
	for t := TClientOp; t <= lastType; t++ {
		t := t
		r.CounterFunc("wire.frames."+TypeName(t), func() int64 { return int64(EncodedFrames(t)) })
		r.CounterFunc("wire.bytes."+TypeName(t), func() int64 { return int64(EncodedBytes(t)) })
	}
}
