package wire

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/op"
)

func testOp(t testing.TB) *op.Op {
	t.Helper()
	o, err := op.NewInsert(10, 3, "héllo")
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func testServerOp(t testing.TB, to int) ServerOp {
	return ServerOp{
		To:      to,
		TS:      core.Timestamp{T1: 7, T2: 3},
		Ref:     causal.OpRef{Site: 0, Seq: 9},
		OrigRef: causal.OpRef{Site: 4, Seq: 2},
		Op:      testOp(t),
	}
}

// TestOpBatchRoundTrip encodes a batch and decodes it back field-for-field.
func TestOpBatchRoundTrip(t *testing.T) {
	batch := OpBatch{Ops: []ServerOp{testServerOp(t, 1), testServerOp(t, 2), testServerOp(t, 5)}}
	batch.Ops[1].TS = core.Timestamp{T1: 1, T2: 300}
	b, err := Append(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := m.(OpBatch)
	if !ok {
		t.Fatalf("decoded %T, want OpBatch", m)
	}
	if len(got.Ops) != 3 {
		t.Fatalf("decoded %d ops, want 3", len(got.Ops))
	}
	for i, so := range got.Ops {
		want := batch.Ops[i]
		if so.To != want.To || so.TS != want.TS || so.Ref != want.Ref || so.OrigRef != want.OrigRef {
			t.Errorf("op %d: got %+v, want %+v", i, so, want)
		}
		if so.Op.String() != want.Op.String() {
			t.Errorf("op %d: op %v, want %v", i, so.Op, want.Op)
		}
	}
}

// TestOpBatchRejectsEmpty: a zero-op batch neither encodes nor decodes.
func TestOpBatchRejectsEmpty(t *testing.T) {
	if _, err := Append(nil, OpBatch{}); err == nil {
		t.Fatal("empty batch encoded")
	}
	if _, err := Decode([]byte{byte(TOpBatch), 0}); err == nil {
		t.Fatal("empty batch decoded")
	}
}

// TestAppendFramesSingleByteIdentical: one broadcast destination produces a
// frame byte-identical to AppendFrame of the equivalent ServerOp — the old
// wire format is preserved exactly.
func TestAppendFramesSingleByteIdentical(t *testing.T) {
	so := testServerOp(t, 3)
	bc, err := NewBroadcast(so.Ref, so.OrigRef, so.Op)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Release()
	got := AppendFrames(nil, []FrameItem{{B: bc, To: so.To, TS: so.TS}})

	want, err := AppendFrame(nil, so)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("single-item frame differs:\n got %x\nwant %x", got, want)
	}
}

// TestAppendFramesBatchDecodes: a run decodes to the same operations that a
// frame-per-op stream would deliver, and splits at MaxBatchOps.
func TestAppendFramesBatchDecodes(t *testing.T) {
	so := testServerOp(t, 0)
	bc, err := NewBroadcast(so.Ref, so.OrigRef, so.Op)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Release()
	const n = MaxBatchOps + 3
	items := make([]FrameItem, n)
	for i := range items {
		items[i] = FrameItem{B: bc, To: i + 1, TS: core.Timestamp{T1: uint64(i), T2: 1}}
	}
	blob := AppendFrames(nil, items)

	r := bufio.NewReader(bytes.NewReader(blob))
	var got []ServerOp
	frames := 0
	for {
		m, err := ReadFrame(r)
		if err != nil {
			break
		}
		frames++
		switch v := m.(type) {
		case ServerOp:
			got = append(got, v)
		case OpBatch:
			got = append(got, v.Ops...)
		default:
			t.Fatalf("unexpected %T", m)
		}
	}
	// MaxBatchOps in the first frame, the remaining 3 in a second batch.
	if frames != 2 {
		t.Fatalf("got %d frames, want 2", frames)
	}
	if len(got) != n {
		t.Fatalf("got %d ops, want %d", len(got), n)
	}
	for i, so := range got {
		if so.To != i+1 || so.TS.T1 != uint64(i) {
			t.Fatalf("op %d out of order: to=%d ts=%v", i, so.To, so.TS)
		}
	}
}

// TestBroadcastEncodeOnce: however many destinations a broadcast reaches,
// the body is encoded exactly once.
func TestBroadcastEncodeOnce(t *testing.T) {
	so := testServerOp(t, 0)
	before := ServerOpEncodes()
	bc, err := NewBroadcast(so.Ref, so.OrigRef, so.Op)
	if err != nil {
		t.Fatal(err)
	}
	var blob []byte
	for i := 1; i <= 64; i++ {
		bc.Retain()
		blob = AppendFrames(blob, []FrameItem{{B: bc, To: i, TS: so.TS}})
		bc.Release()
	}
	bc.Release()
	if d := ServerOpEncodes() - before; d != 1 {
		t.Fatalf("64-destination broadcast performed %d body encodes, want 1", d)
	}
	if len(blob) == 0 {
		t.Fatal("no frames produced")
	}
}

// TestBroadcastCompatServerOp: the compatibility materialization carries the
// same fields and costs one more encode when actually sent.
func TestBroadcastCompatServerOp(t *testing.T) {
	so := testServerOp(t, 8)
	bc, err := NewBroadcast(so.Ref, so.OrigRef, so.Op)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Release()
	got := bc.ServerOp(so.To, so.TS)
	a, err := Append(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Append(nil, so)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("compat ServerOp encodes differently from the original")
	}
}

// TestReadFrameSizes: frames round-trip whether they fit in the reader's
// buffer (decoded in place) or not (one-off body allocation), and a body cut
// short reports io.ErrUnexpectedEOF on both paths, as io.ReadFull does.
func TestReadFrameSizes(t *testing.T) {
	const bufSize = 4096
	// A JoinResp body is type, site, text length (2 bytes here), text and
	// LocalOps: fit's body fills the reader's buffer exactly.
	fit := JoinResp{Site: 1, Text: strings.Repeat("f", bufSize-5)}
	if b, _ := Append(nil, fit); len(b) != bufSize {
		t.Fatalf("fit body is %d bytes, want %d", len(b), bufSize)
	}
	big := JoinResp{Site: 1, Text: strings.Repeat("b", 3*bufSize)}
	small := Leave{Site: 2}
	msgs := []Msg{small, fit, small, big, small}
	var stream []byte
	for _, m := range msgs {
		var err error
		if stream, err = AppendFrame(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReaderSize(bytes.NewReader(stream), bufSize)
	for i, want := range msgs {
		m, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		a, _ := Append(nil, m)
		b, _ := Append(nil, want)
		if !bytes.Equal(a, b) {
			t.Fatalf("frame %d: got %T of %d bytes, want %T of %d", i, m, len(a), want, len(b))
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}

	for _, m := range []Msg{fit, big} {
		frame, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		cut := bufio.NewReaderSize(bytes.NewReader(frame[:len(frame)-1]), bufSize)
		if _, err := ReadFrame(cut); err != io.ErrUnexpectedEOF {
			t.Fatalf("%d-byte frame cut short: %v, want io.ErrUnexpectedEOF", len(frame), err)
		}
	}
}
