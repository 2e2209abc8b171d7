package wire

import (
	"bufio"
	"bytes"
	"math"
	"testing"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/obs/span"
	"repro/internal/op"
)

// decodeCorpus is FuzzDecode's seed corpus: a body for every message type
// (traced and untraced op carriers), then malformed bodies.
func decodeCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	o, _ := op.NewInsert(5, 1, "xy")
	sampled := span.Context{Site: 2, Seq: 4, Flags: span.FlagSampled}
	seeds := []Msg{
		JoinReq{Site: 3},
		JoinResp{Site: 3, Text: "hello 日本", LocalOps: 7},
		Leave{Site: 1},
		Ack{},
		Ack{From: 5, T1: math.MaxUint64},
		ClientOp{From: 2, TS: core.Timestamp{T1: 9, T2: 4}, Ref: causal.OpRef{Site: 2, Seq: 4}, Op: o},
		ServerOp{To: 1, TS: core.Timestamp{T1: 3, T2: 1}, Ref: causal.OpRef{Site: 0, Seq: 2},
			OrigRef: causal.OpRef{Site: 2, Seq: 1}, Op: o},
		OpBatch{Ops: []ServerOp{
			{To: 1, TS: core.Timestamp{T1: 3, T2: 1}, Ref: causal.OpRef{Site: 0, Seq: 2},
				OrigRef: causal.OpRef{Site: 2, Seq: 1}, Op: o},
			{To: 4, TS: core.Timestamp{T1: 9, T2: 0}, Ref: causal.OpRef{Site: 0, Seq: 3},
				OrigRef: causal.OpRef{Site: 1, Seq: 7}, Op: o},
		}},
		SessionJoinReq{Session: "docs/α", Site: 7, ReadOnly: true},
		Presence{From: 2, TS: core.Timestamp{T1: 9, T2: 4}, Anchor: 3, Head: 5, Active: true},
		ServerPresence{To: 1, From: 2, Anchor: 3, Head: 5, Active: true},
		ClientOp{From: 2, TS: core.Timestamp{T1: 9, T2: 4}, Ref: causal.OpRef{Site: 2, Seq: 4}, Op: o, Trace: sampled},
		OpBatch{Ops: []ServerOp{
			{To: 1, TS: core.Timestamp{T1: 3, T2: 1}, Ref: causal.OpRef{Site: 0, Seq: 2},
				OrigRef: causal.OpRef{Site: 2, Seq: 1}, Op: o, Trace: sampled},
			{To: 4, TS: core.Timestamp{T1: 9, T2: 0}, Ref: causal.OpRef{Site: 0, Seq: 3},
				OrigRef: causal.OpRef{Site: 1, Seq: 7}, Op: o},
		}},
	}
	corpus := make([][]byte, 0, len(seeds)+10)
	for _, m := range seeds {
		b, err := Append(nil, m)
		if err != nil {
			tb.Fatal(err)
		}
		corpus = append(corpus, b)
	}
	return append(corpus,
		[]byte{},
		[]byte{0xFF, 0x01, 0x02},
		// Malformed batches: zero count, count beyond the body, truncated op.
		[]byte{byte(TOpBatch), 0},
		[]byte{byte(TOpBatch), 0xFF, 0xFF, 0x03},
		[]byte{byte(TOpBatch), 2, 1, 1, 1},
		// Malformed acks: T1 missing, T1 cut mid-varint, a trailing byte, and
		// the trace bit on a type that carries no operation.
		[]byte{byte(TAck), 5},
		[]byte{byte(TAck), 5, 0xFF, 0xFF},
		[]byte{byte(TAck), 5, 64, 0},
		[]byte{byte(TAck | traceBit), 5, 64},
		// Insert text that is not valid UTF-8: two fragments of one character.
		utf8SplitFrame,
	)
}

// checkNoAlias decodes a copy of data, overwrites the copy with 0xFF and
// re-encodes the message: the bytes must not change, because ReadFrame
// decodes straight out of a reader's buffer and the next read reuses it. It
// returns the re-encoding, or nil when data does not decode.
func checkNoAlias(t *testing.T, data []byte) []byte {
	t.Helper()
	body := append([]byte(nil), data...)
	m, err := Decode(body)
	if err != nil {
		return nil
	}
	want, err := Append(nil, m)
	if err != nil {
		t.Fatalf("decoded message does not re-encode: %v", err)
	}
	for i := range body {
		body[i] = 0xFF
	}
	got, err := Append(nil, m)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%T shares memory with the body it was decoded from (%v)", m, err)
	}
	return want
}

// TestDecodeDoesNotAlias: every message in the seed corpus decodes into
// memory of its own.
func TestDecodeDoesNotAlias(t *testing.T) {
	decoded := 0
	for _, data := range decodeCorpus(t) {
		if re := checkNoAlias(t, data); re != nil {
			decoded++
			if !bytes.Equal(re, data) {
				t.Fatalf("seed % x re-encodes as % x", data, re)
			}
		}
	}
	if decoded < 13 {
		t.Fatalf("only %d seeds decode; the corpus lost its valid messages", decoded)
	}
}

// FuzzDecode throws arbitrary bytes at the message decoder: it must never
// panic, everything it accepts must re-encode to an equivalent message, and
// no decoded message may share memory with its body.
func FuzzDecode(f *testing.F) {
	for _, b := range decodeCorpus(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Accepted messages must round-trip.
		re := checkNoAlias(t, data)
		if re == nil {
			return // rejection is fine; panics are not
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		re2, err := Append(nil, m2)
		if err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("canonical encoding unstable")
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams to the frame reader.
func FuzzReadFrame(f *testing.F) {
	frame, _ := AppendFrame(nil, JoinReq{Site: 1})
	f.Add(frame)
	f.Add([]byte{0x05, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 4; i++ {
			if _, err := ReadFrame(r); err != nil {
				return
			}
		}
	})
}
