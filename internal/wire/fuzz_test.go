package wire

import (
	"bufio"
	"bytes"
	"math"
	"testing"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/op"
)

// FuzzDecode throws arbitrary bytes at the message decoder: it must never
// panic, and everything it accepts must re-encode to an equivalent message.
func FuzzDecode(f *testing.F) {
	// Seed with every valid message shape.
	o, _ := op.NewInsert(5, 1, "xy")
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
	}
	for _, m := range seeds {
		b, err := Append(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x01, 0x02})
	// Malformed batches: zero count, count beyond the body, truncated op.
	f.Add([]byte{byte(TOpBatch), 0})
	f.Add([]byte{byte(TOpBatch), 0xFF, 0xFF, 0x03})
	f.Add([]byte{byte(TOpBatch), 2, 1, 1, 1})

	// Malformed acks: T1 missing, T1 cut mid-varint, a trailing byte, and the
	// trace bit on a type that carries no operation.
	f.Add([]byte{byte(TAck), 5})
	f.Add([]byte{byte(TAck), 5, 0xFF, 0xFF})
	f.Add([]byte{byte(TAck), 5, 64, 0})
	f.Add([]byte{byte(TAck | traceBit), 5, 64})

	// Insert text that is not valid UTF-8: two fragments of one character.
	f.Add(utf8SplitFrame)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		// Accepted messages must round-trip.
		re, err := Append(nil, m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
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
	var buf bytes.Buffer
	_, _ = WriteFrame(&buf, JoinReq{Site: 1})
	f.Add(buf.Bytes())
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
