package wire

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/causal"
	"repro/internal/core"
	"repro/internal/op"
	"repro/internal/vclock"
)

func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	body, err := Append(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestClientOpRoundTrip(t *testing.T) {
	o, _ := op.NewInsert(5, 1, "héllo")
	m := ClientOp{
		From: 3,
		TS:   core.Timestamp{T1: 7, T2: 200},
		Ref:  causal.OpRef{Site: 3, Seq: 200},
		Op:   o,
	}
	got := roundTrip(t, m).(ClientOp)
	if got.From != m.From || got.TS != m.TS || got.Ref != m.Ref || !got.Op.Equal(m.Op) {
		t.Fatalf("round trip: %+v vs %+v", got, m)
	}
}

func TestServerOpRoundTrip(t *testing.T) {
	o, _ := op.NewDelete(9, 2, 3)
	m := ServerOp{
		To:      2,
		TS:      core.Timestamp{T1: 1000000, T2: 1},
		Ref:     causal.OpRef{Site: 0, Seq: 42},
		OrigRef: causal.OpRef{Site: 5, Seq: 17},
		Op:      o,
	}
	got := roundTrip(t, m).(ServerOp)
	if got.To != m.To || got.TS != m.TS || got.Ref != m.Ref || got.OrigRef != m.OrigRef || !got.Op.Equal(m.Op) {
		t.Fatalf("round trip: %+v vs %+v", got, m)
	}
}

func TestControlMessagesRoundTrip(t *testing.T) {
	if got := roundTrip(t, JoinReq{Site: 12}).(JoinReq); got.Site != 12 {
		t.Fatalf("join req: %+v", got)
	}
	jr := roundTrip(t, JoinResp{Site: 4, Text: "hello 日本"}).(JoinResp)
	if jr.Site != 4 || jr.Text != "hello 日本" {
		t.Fatalf("join resp: %+v", jr)
	}
	if got := roundTrip(t, Leave{Site: 9}).(Leave); got.Site != 9 {
		t.Fatalf("leave: %+v", got)
	}
	if got := roundTrip(t, Ack{From: 9, T1: 300}).(Ack); got != (Ack{From: 9, T1: 300}) {
		t.Fatalf("ack: %+v", got)
	}
	sj := roundTrip(t, SessionJoinReq{Session: "docs/α", Site: 7, ReadOnly: true}).(SessionJoinReq)
	if sj.Session != "docs/α" || sj.Site != 7 || !sj.ReadOnly {
		t.Fatalf("session join req: %+v", sj)
	}
	if got := roundTrip(t, SessionJoinReq{}).(SessionJoinReq); got.Session != "" || got.Site != 0 || got.ReadOnly {
		t.Fatalf("empty session join req: %+v", got)
	}
}

// TestAckLayout pins the tenth message: type byte 10 and two uvarints, so a
// site that has integrated fewer than 128 broadcasts acknowledges them in a
// four-byte frame; the trace bit, which only op-carrying frames may set, makes
// it an unknown type; and its frames are counted under their own name.
func TestAckLayout(t *testing.T) {
	body, err := Append(nil, Ack{From: 3, T1: 64})
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{10, 3, 64}; !bytes.Equal(body, want) {
		t.Fatalf("ack body % x, want % x", body, want)
	}
	frames, wireBytes := EncodedFrames(TAck), EncodedBytes(TAck)
	frame, err := AppendFrame(nil, Ack{From: 3, T1: 64})
	if err != nil || len(frame) != 4 {
		t.Fatalf("ack frame % x (%v), want 4 bytes", frame, err)
	}
	if df, db := EncodedFrames(TAck)-frames, EncodedBytes(TAck)-wireBytes; df != 1 || db != 4 {
		t.Fatalf("one ack frame counted as %d frames / %d bytes under %q", df, db, TypeName(TAck))
	}
	if TypeName(lastType) != "ack" || TypeName(lastType+1) != "unknown" {
		t.Fatalf("lastType is %q and the type after it %q", TypeName(lastType), TypeName(lastType+1))
	}
	body[0] |= byte(traceBit)
	if _, err := Decode(body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ack with the trace bit set: %v, want ErrCorrupt", err)
	}
	for _, bad := range [][]byte{{10}, {10, 3}, {10, 3, 0x80}, {10, 3, 64, 0}} {
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("malformed ack % x: %v, want ErrCorrupt", bad, err)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var stream []byte
	o, _ := op.NewInsert(0, 0, "x")
	msgs := []Msg{
		JoinReq{Site: 1},
		JoinResp{Site: 1, Text: "doc"},
		ClientOp{From: 1, TS: core.Timestamp{T1: 0, T2: 1}, Ref: causal.OpRef{Site: 1, Seq: 1}, Op: o},
		Ack{From: 1, T1: 64},
		Leave{Site: 1},
	}
	for _, m := range msgs {
		var err error
		if stream, err = AppendFrame(stream, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(bytes.NewReader(stream))
	for i, want := range msgs {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if gotT, wantT := got.msgType(), want.msgType(); gotT != wantT {
			t.Fatalf("frame %d: type %d want %d", i, gotT, wantT)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}) // huge length varint
	_, err := ReadFrame(bufio.NewReader(&buf))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("want ErrFrameTooLarge, got %v", err)
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	cases := [][]byte{
		nil,                        // empty
		{99},                       // unknown type
		{byte(TClientOp)},          // truncated
		{byte(TJoinResp), 1},       // missing string
		{byte(TJoinResp), 1, 0xff}, // string length runs past end
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Fatalf("case %d: corrupt input accepted", i)
		}
	}
	// Trailing garbage must be rejected.
	body, _ := Append(nil, Leave{Site: 1})
	body = append(body, 0xAB)
	if _, err := Decode(body); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestDecodeCorruptOp(t *testing.T) {
	// An op claiming 100 comps but providing none.
	b := []byte{byte(TClientOp), 1, 0, 1, 1, 1, 100}
	if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
	// A comp with an invalid kind.
	b = []byte{byte(TClientOp), 1, 0, 1, 1, 1, 1, 9, 5}
	if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad kind: %v", err)
	}
	// A structurally invalid op (zero-length retain).
	b = []byte{byte(TClientOp), 1, 0, 1, 1, 1, 1, byte(op.KRetain), 0}
	if _, err := Decode(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("invalid op: %v", err)
	}
}

// utf8SplitFrame is a ClientOp body carrying [retain 1, insert "\xe6",
// insert "\x97\xa5", retain 1]: each insert a fragment of 日, which a decoder
// that concatenated them would accept as `insert "日"` claiming 3 runes.
var utf8SplitFrame = []byte{byte(TClientOp), 1, 0, 1, 1, 1,
	4, byte(op.KRetain), 1, byte(op.KInsert), 1, 0xe6, byte(op.KInsert), 2, 0x97, 0xa5, byte(op.KRetain), 1}

// TestInsertTextUTF8 covers the wire's side of insert text being UTF-8: a
// frame whose insert is not valid UTF-8 is refused, and an op composed from
// two invalid fragments (normalized by op.Insert) travels intact.
func TestInsertTextUTF8(t *testing.T) {
	valid := append([]byte(nil), utf8SplitFrame...)
	copy(valid[11:], "a")
	copy(valid[14:], "bc")
	composed, err := op.Compose(op.New().Retain(1).Insert("\xe6").Retain(1), op.New().Retain(2).Insert("\x97\xa5").Retain(1))
	if err != nil {
		t.Fatal(err)
	}
	composedFrame, err := Append(nil, ClientOp{From: 1, TS: core.Timestamp{T2: 1}, Ref: causal.OpRef{Site: 1, Seq: 1}, Op: composed})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  string // the op decoded, or "" for ErrCorrupt
	}{
		{"fragments of one character in one frame", utf8SplitFrame, ""},
		{"the same frame with valid text", valid, `retain(1) insert("abc") retain(1)`},
		{"compose of the two fragments", composedFrame, `retain(1) insert("���") retain(1)`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Decode(tc.frame)
			if tc.want == "" {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decoded %+v, %v; want ErrCorrupt", m, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if o := m.(ClientOp).Op; o.String() != tc.want || o.Validate() != nil {
				t.Fatalf("decoded %v (%v), want %s", o, o.Validate(), tc.want)
			}
		})
	}
}

func TestVCRoundTrip(t *testing.T) {
	v := vclock.VC{0, 1, 128, 1 << 40}
	b := AppendVC(nil, v)
	got, rest, err := DecodeVC(b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v rest %d", err, len(rest))
	}
	if vclock.Compare(got, v) != vclock.Equal {
		t.Fatalf("round trip: %v vs %v", got, v)
	}
	if _, _, err := DecodeVC([]byte{5, 1}); err == nil {
		t.Fatal("truncated vc accepted")
	}
}

func TestSKEntriesRoundTrip(t *testing.T) {
	es := []vclock.Entry{{Index: 0, Value: 1}, {Index: 31, Value: 12345}}
	b := AppendSKEntries(nil, es)
	got, rest, err := DecodeSKEntries(b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != 2 || got[0] != es[0] || got[1] != es[1] {
		t.Fatalf("round trip: %+v", got)
	}
	if len(b) != vclock.EntriesWireSize(es) {
		t.Fatalf("EntriesWireSize %d but encoded %d bytes", vclock.EntriesWireSize(es), len(b))
	}
}

func TestTimestampSizeIsConstantAndSmall(t *testing.T) {
	// The headline claim: the compressed timestamp costs two varints no
	// matter how many sites participate.
	if got := TimestampSize(core.Timestamp{T1: 0, T2: 0}); got != 2 {
		t.Fatalf("fresh session timestamp: %d bytes", got)
	}
	if got := TimestampSize(core.Timestamp{T1: 127, T2: 127}); got != 2 {
		t.Fatalf("small counters: %d bytes", got)
	}
	if got := TimestampSize(core.Timestamp{T1: 1 << 20, T2: 1 << 20}); got != 6 {
		t.Fatalf("large counters: %d bytes", got)
	}
}

func TestUvarintLenMatchesEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := r.Uint64() >> uint(r.Intn(64))
		b := AppendVC(nil, vclock.VC{v})
		// 1 count byte + value bytes.
		if len(b) != 1+UvarintLen(v) {
			t.Fatalf("UvarintLen(%d) = %d but encoded %d", v, UvarintLen(v), len(b)-1)
		}
	}
}

// TestRandomOpsRoundTrip fuzzes operations through the codec.
func TestRandomOpsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	alphabet := []rune("abπ日")
	for i := 0; i < 500; i++ {
		o := op.New()
		for j := 0; j < r.Intn(6); j++ {
			switch r.Intn(3) {
			case 0:
				o.Retain(1 + r.Intn(5))
			case 1:
				rs := make([]rune, 1+r.Intn(4))
				for k := range rs {
					rs[k] = alphabet[r.Intn(len(alphabet))]
				}
				o.Insert(string(rs))
			default:
				o.Delete(1 + r.Intn(5))
			}
		}
		m := ClientOp{From: 1, TS: core.Timestamp{T1: uint64(i), T2: 1}, Ref: causal.OpRef{Site: 1, Seq: uint64(i)}, Op: o}
		got := roundTrip(t, m).(ClientOp)
		if !got.Op.Equal(o) {
			t.Fatalf("iter %d: %v vs %v", i, got.Op, o)
		}
	}
}
