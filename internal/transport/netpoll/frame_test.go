package netpoll

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/wire"
)

// testMsgs builds n protocol messages cycling through the shapes that matter
// for reassembly: small fixed-size frames, ServerOps, multi-op batches, and
// string-carrying frames whose size pushes the length prefix past one byte.
func testMsgs(t testing.TB, n int) []wire.Msg {
	t.Helper()
	o, err := op.NewInsert(10, 3, "héllo")
	if err != nil {
		t.Fatal(err)
	}
	so := func(i int) wire.ServerOp {
		return wire.ServerOp{
			To:      i % 7,
			TS:      core.Timestamp{T1: uint64(i), T2: uint64(2 * i)},
			Ref:     causal.OpRef{Site: i % 3, Seq: uint64(i)},
			OrigRef: causal.OpRef{Site: 1, Seq: uint64(i + 1)},
			Op:      o,
		}
	}
	msgs := make([]wire.Msg, 0, n)
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			msgs = append(msgs, wire.ClientOp{
				From: i,
				TS:   core.Timestamp{T1: uint64(i), T2: 9},
				Ref:  causal.OpRef{Site: 2, Seq: uint64(i)},
				Op:   o,
			})
		case 1:
			msgs = append(msgs, so(i))
		case 2:
			msgs = append(msgs, wire.OpBatch{Ops: []wire.ServerOp{so(i), so(i + 1), so(i + 2)}})
		case 3:
			// i*53%400 spans both one- and two-byte length prefixes.
			msgs = append(msgs, wire.JoinResp{Site: i, Text: strings.Repeat("a", (i*53)%400)})
		}
	}
	return msgs
}

// encodeStream frames msgs back to back, exactly as a sender would put them
// on the wire.
func encodeStream(t testing.TB, msgs []wire.Msg) []byte {
	t.Helper()
	var stream []byte
	for _, m := range msgs {
		var err error
		if stream, err = wire.AppendFrame(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	return stream
}

// body re-encodes a decoded message so two decodes can be compared by bytes
// (op pointers make struct equality useless).
func body(t testing.TB, m wire.Msg) []byte {
	t.Helper()
	b, err := wire.Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// feed pushes chunk into fb as a socket read would and drains every complete
// frame.
func feed(t testing.TB, fb *frameBuf, chunk []byte) []wire.Msg {
	t.Helper()
	for len(chunk) > 0 {
		dst := fb.space(len(chunk))
		n := copy(dst, chunk)
		fb.advance(n)
		chunk = chunk[n:]
	}
	var got []wire.Msg
	for {
		m, ok, err := fb.next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if !ok {
			return got
		}
		got = append(got, m)
	}
}

func assertSameMsgs(t *testing.T, got, want []wire.Msg) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(body(t, got[i]), body(t, want[i])) {
			t.Fatalf("message %d decoded differently: %#v want %#v", i, got[i], want[i])
		}
	}
}

// TestFrameBufSplits drives the reassembly buffer across every frame
// boundary that matters: a length prefix split mid-varint, a body split, a
// TOpBatch split across three reads, single-byte trickle, and chunks
// carrying several frames plus a partial next one.
func TestFrameBufSplits(t *testing.T) {
	msgs := testMsgs(t, 8)
	stream := encodeStream(t, msgs)
	// A frame with a body ≥ 128 bytes has a 2-byte length prefix; cutting
	// at +1 from its start splits the prefix itself.
	big := encodeStream(t, []wire.Msg{wire.JoinResp{Site: 1, Text: strings.Repeat("b", 300)}})
	batch := encodeStream(t, []wire.Msg{msgs[2]}) // the OpBatch

	cases := []struct {
		name   string
		stream []byte
		want   []wire.Msg
		cuts   []int // split offsets into stream, ascending
	}{
		{"header-split", big, []wire.Msg{wire.JoinResp{Site: 1, Text: strings.Repeat("b", 300)}}, []int{1}},
		{"body-split", stream, msgs, []int{len(stream) / 2}},
		{"batch-3-reads", batch, []wire.Msg{msgs[2]}, []int{len(batch) / 3, 2 * len(batch) / 3}},
		{"several-frames-then-partial", stream, msgs, []int{len(stream) - 3}},
		{"every-boundary", stream, msgs, []int{1, 2, 3, len(stream) / 4, len(stream) / 2, len(stream) - 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fb frameBuf
			var got []wire.Msg
			prev := 0
			for _, cut := range append(tc.cuts, len(tc.stream)) {
				got = append(got, feed(t, &fb, tc.stream[prev:cut])...)
				prev = cut
			}
			assertSameMsgs(t, got, tc.want)
			if fb.pending() != 0 {
				t.Fatalf("%d bytes left in buffer after full stream", fb.pending())
			}
		})
	}
}

// TestFrameBufByteAtATime is the degenerate short-read case: every read
// delivers one byte, so every frame is assembled across many rounds.
func TestFrameBufByteAtATime(t *testing.T) {
	msgs := testMsgs(t, 6)
	stream := encodeStream(t, msgs)
	var fb frameBuf
	var got []wire.Msg
	for i := range stream {
		got = append(got, feed(t, &fb, stream[i:i+1])...)
	}
	assertSameMsgs(t, got, msgs)
}

// TestFrameBufReleasesOnDrain: the reassembly buffer is held only while
// bytes are. A drain hands it back, a partial frame keeps its bytes until
// the rest arrives, and a read that brought nothing releases what space took.
func TestFrameBufReleasesOnDrain(t *testing.T) {
	msgs := testMsgs(t, 8)
	stream := encodeStream(t, msgs)
	held := func(fb *frameBuf) int {
		if fb.pb == nil {
			return 0
		}
		return cap(fb.pb.B)
	}

	var fb frameBuf
	got := feed(t, &fb, stream)
	assertSameMsgs(t, got, msgs)
	if c := held(&fb); c != 0 {
		t.Fatalf("drained buffer keeps %d bytes of capacity", c)
	}

	cut := len(stream) - 3
	got = feed(t, &fb, stream[:cut])
	if fb.pending() == 0 || held(&fb) == 0 {
		t.Fatalf("partial frame lost: %d bytes pending, capacity %d", fb.pending(), held(&fb))
	}
	fb.release() // a no-op while bytes are pending
	got = append(got, feed(t, &fb, stream[cut:])...)
	assertSameMsgs(t, got, msgs)
	if c := held(&fb); c != 0 {
		t.Fatalf("buffer keeps %d bytes of capacity after the partial frame completed", c)
	}

	fb.space(DefaultReadChunk) // a read that then hits EAGAIN
	fb.release()
	if c := held(&fb); c != 0 {
		t.Fatalf("empty read keeps %d bytes of capacity", c)
	}
}

// TestFrameBufCorrupt checks the two terminal framing errors: an oversized
// length and an unterminated length prefix. Both must surface as errors, not
// silent stalls.
func TestFrameBufCorrupt(t *testing.T) {
	t.Run("frame-too-large", func(t *testing.T) {
		var fb frameBuf
		huge := []byte{0xff, 0xff, 0xff, 0xff, 0x7f} // ~34 GiB length
		copy(fb.space(len(huge)), huge)
		fb.advance(len(huge))
		if _, _, err := fb.next(); err == nil {
			t.Fatal("oversized frame length not rejected")
		}
	})
	t.Run("unterminated-length", func(t *testing.T) {
		var fb frameBuf
		junk := bytes.Repeat([]byte{0xff}, 12)
		copy(fb.space(len(junk)), junk)
		fb.advance(len(junk))
		if _, _, err := fb.next(); err == nil {
			t.Fatal("unterminated varint length not rejected")
		}
	})
}

// FuzzPartialRead re-chunks a valid frame stream at fuzzer-chosen offsets
// and asserts the reassembly buffer decodes exactly the sequence
// wire.ReadFrame produces from the same bytes.
func FuzzPartialRead(f *testing.F) {
	f.Add([]byte{1, 3, 7, 100}, uint8(5))
	f.Add([]byte{0}, uint8(12))
	f.Add([]byte{255, 1}, uint8(3))
	f.Fuzz(func(t *testing.T, schedule []byte, nmsgs uint8) {
		msgs := testMsgs(t, int(nmsgs%16)+1)
		stream := encodeStream(t, msgs)

		// Reference decode: the blocking-path reader over the same stream.
		var want []wire.Msg
		r := bufio.NewReader(bytes.NewReader(stream))
		for {
			m, err := wire.ReadFrame(r)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("reference decode: %v", err)
			}
			want = append(want, m)
		}

		var fb frameBuf
		var got []wire.Msg
		pos, si := 0, 0
		for pos < len(stream) {
			n := 1
			if len(schedule) > 0 {
				n = int(schedule[si%len(schedule)]) + 1
				si++
			}
			if pos+n > len(stream) {
				n = len(stream) - pos
			}
			got = append(got, feed(t, &fb, stream[pos:pos+n])...)
			pos += n
		}
		assertSameMsgs(t, got, want)
		if fb.pending() != 0 {
			t.Fatalf("%d bytes left after full stream", fb.pending())
		}
	})
}
