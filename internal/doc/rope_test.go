package doc

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"unicode/utf8"
	"unsafe"
)

// checkRope fails t unless r holds exactly what ref holds (Len, String, and
// the slice [i, j) once clamped) and its tree is well formed: every node's
// rune and byte counts are the sums of its children's, every leaf is valid
// UTF-8 within maxLeaf bytes, heights are consistent, and the depth is within
// what node accepts for the longest the document has been (tryInsert and
// tryDelete change lengths but never heights, so the current length is not
// enough).
func checkRope(t *testing.T, ref *Simple, r *Rope, maxLen, i, j int) {
	t.Helper()
	if r.Len() != ref.Len() {
		t.Fatalf("Len: rope %d, simple %d", r.Len(), ref.Len())
	}
	if got, want := r.String(), ref.String(); got != want {
		t.Fatalf("String differs: rope %d bytes, simple %d bytes", len(got), len(want))
	}
	n := ref.Len()
	i, j = min(i, n), min(j, n)
	i, j = min(i, j), max(i, j)
	got, err := r.Slice(i, j)
	want, _ := ref.Slice(i, j)
	if err != nil || got != want {
		t.Fatalf("Slice(%d, %d): rope %q (%v), simple %q", i, j, got, err, want)
	}
	var walk func(n *ropeNode) (runes, size int)
	walk = func(n *ropeNode) (int, int) {
		if n.isLeaf() {
			switch {
			case n.right != nil || n.height != 1:
				t.Fatalf("leaf with a right child or height %d", n.height)
			case len(n.text) != n.size || len(n.text) > maxLeaf:
				t.Fatalf("leaf of %d bytes records %d (bound %d)", len(n.text), n.size, maxLeaf)
			case !utf8.Valid(n.text):
				t.Fatalf("leaf holds invalid UTF-8 %q", n.text)
			case utf8.RuneCount(n.text) != n.length:
				t.Fatalf("leaf of %d runes records %d", utf8.RuneCount(n.text), n.length)
			}
			return n.length, n.size
		}
		if n.right == nil || n.text != nil {
			t.Fatal("internal node without a right child or with a payload")
		}
		lr, ls := walk(n.left)
		rr, rs := walk(n.right)
		switch {
		case n.length != lr+rr || n.size != ls+rs:
			t.Fatalf("node records %d runes / %d bytes, children hold %d / %d", n.length, n.size, lr+rr, ls+rs)
		case n.height != max(n.left.height, n.right.height)+1:
			t.Fatalf("node height %d over children of %d and %d", n.height, n.left.height, n.right.height)
		}
		return n.length, n.size
	}
	walk(r.root)
	if d := r.Depth(); d > heightLimit(maxLen) {
		t.Fatalf("depth %d over a document that has held at most %d runes (bound %d)", d, maxLen, heightLimit(maxLen))
	}
}

// ropeAlphabets are the two kinds of text FuzzRopeEquivalence writes: ASCII,
// whose leaves index directly, and a mix of 1-, 2-, 3- and 4-byte runes,
// whose leaves are scanned.
var ropeAlphabets = [2][]rune{[]rune("abc xyz\n"), []rune("aé狐🦊 b\n")}

// ropeEdit kinds, one per byte of a script (kind % 5).
const (
	editInsert         = iota // pos(2) runes-1(1): 1-8 runes of the alphabet
	editInsertRaw             // pos(2) len-1(1) bytes: 1-8 raw bytes, often invalid UTF-8
	editInsertLarge           // pos(2) extra(1): 1 024-5 104 runes, more than a leaf
	editDelete                // pos(2) cnt-1(1): 1-8 runes
	editDeleteSpanning        // pos(2) cnt(2): up to 4 leaves' worth of runes
)

// ropeFuzzMax bounds the documents FuzzRopeEquivalence builds: inserts stop
// growing them (but for a rune or a few raw bytes) at 16 Ki runes.
const ropeFuzzMax = 1 << 14

// FuzzRopeEquivalence decodes its input into an edit script — byte 0 picks
// the alphabet and seeds the text generator, byte 1 the initial length in
// units of 64 runes (0-16 320), then up to 64 edits as listed above, the last
// two bytes of each choosing the slice compared after it — and demands that
// the rope and the reference buffer agree after every edit while the rope's
// invariants hold (checkRope).
func FuzzRopeEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 4, editInsert, 0, 7, 2, 0, 9})
	f.Add([]byte{1, 255, editDeleteSpanning, 30, 0, 40, 0, 0, 10, editInsert, 120, 0, 7, 1, 2})
	// The two fragments of 日 typed one after the other, then the whole
	// character beside them: three U+FFFD and one 日.
	f.Add([]byte{1, 0, editInsertRaw, 0, 0, 0, 0xe6, 0, 9, editInsertRaw, 0, 1, 1, 0x97, 0xa5, 0, 9,
		editInsertRaw, 0, 3, 2, 0xe6, 0x97, 0xa5, 0, 9})
	// Large inserts into a multi-leaf multibyte document, a spanning delete
	// back across them, and keystrokes at the seams.
	f.Add([]byte{1, 128, editInsertLarge, 16, 0, 200, 0, 255, editDeleteSpanning, 15, 0, 20, 0, 4, 0,
		editInsert, 16, 0, 3, 16, 0, editDelete, 31, 255, 7, 31, 255, editInsertLarge, 0, 0, 0, 0, 100})
	f.Add([]byte{0, 200, editInsertLarge, 100, 0, 255, 0, 255, editDelete, 100, 0, 7, 0, 255,
		editDeleteSpanning, 0, 0, 255, 255, 0, 255, editInsertRaw, 0, 0, 7, 0xff, 0xc0, 0x80, 0xed, 0xa0, 0x80, 0xf4, 0x90, 0, 9})

	f.Fuzz(func(t *testing.T, data []byte) {
		take := func(n int) []byte {
			n = min(n, len(data))
			b := data[:n]
			data = data[n:]
			return b
		}
		u8 := func() int {
			if b := take(1); len(b) == 1 {
				return int(b[0])
			}
			return 0
		}
		u16 := func() int { return u8()<<8 | u8() }

		mode := u8()
		rng := rand.New(rand.NewSource(int64(mode)))
		alphabet := ropeAlphabets[mode%2]
		text := func(n int) string {
			rs := make([]rune, n)
			for i := range rs {
				rs[i] = alphabet[rng.Intn(len(alphabet))]
			}
			return string(rs)
		}
		initial := text(u8() * 64)
		ref, rope := NewSimple(initial), NewRope(initial)
		maxLen := ref.Len()
		checkRope(t, ref, rope, maxLen, 0, maxLen)
		for step := 0; len(data) > 0 && step < 64; step++ {
			n := ref.Len()
			room := max(ropeFuzzMax-n, 1)
			kind := u8() % 5
			pos := u16() % (n + 1)
			var ins string
			cnt := 0
			switch kind {
			case editInsert:
				ins = text(min(1+u8()%8, room))
			case editInsertRaw:
				ins = string(take(1 + u8()%8))
			case editInsertLarge:
				ins = text(min(maxLeaf/2+u8()*16, room))
			case editDelete:
				cnt = min(1+u8()%8, n-pos)
			case editDeleteSpanning:
				cnt = min(u16()%(4*maxLeaf), n-pos)
			}
			if kind <= editInsertLarge {
				if err := ref.Insert(pos, ins); err != nil {
					t.Fatal(err)
				}
				if err := rope.Insert(pos, ins); err != nil {
					t.Fatalf("step %d: insert %q at %d: %v", step, ins, pos, err)
				}
			} else {
				if err := ref.Delete(pos, cnt); err != nil {
					t.Fatal(err)
				}
				if err := rope.Delete(pos, cnt); err != nil {
					t.Fatalf("step %d: delete [%d,%d): %v", step, pos, pos+cnt, err)
				}
			}
			maxLen = max(maxLen, ref.Len())
			i := u8() * ref.Len() / 255
			checkRope(t, ref, rope, maxLen, i, i+u8()*8)
		}
	})
}

// TestRopeInvalidUTF8 pins the mapping every stored copy of a document
// shares with the parent's []rune leaves: each byte that is not part of a
// valid encoding is one U+FFFD, whether it arrives through NewRope or Insert,
// alone or split across two inserts.
func TestRopeInvalidUTF8(t *testing.T) {
	for _, s := range []string{"\xe6", "a\x97\xa5b", "\xed\xa0\x80", "\xf4\x90\x80\x80", "ok\xffok", "\xc0\xaf"} {
		want := string([]rune(s))
		if r := NewRope(s); r.String() != want || r.Len() != utf8.RuneCountInString(s) {
			t.Fatalf("NewRope(%q) = %q (%d runes), want %q", s, r.String(), r.Len(), want)
		}
		r := NewRope("<>")
		if err := r.Insert(1, s); err != nil {
			t.Fatal(err)
		}
		if got := r.String(); got != "<"+want+">" {
			t.Fatalf("Insert(%q) = %q, want %q", s, got, "<"+want+">")
		}
	}
	r := NewRope("")
	for _, frag := range []string{"\xe6", "\x97\xa5"} {
		if err := r.Insert(r.Len(), frag); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.String(); got != "���" || r.Len() != 3 {
		t.Fatalf("two fragments of 日 = %q (%d runes), want three U+FFFD", got, r.Len())
	}
}

// TestRopeNodeSize keeps a node in the 64-byte size class on 64-bit
// platforms: the byte count rides in the space the []rune layout left.
func TestRopeNodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(ropeNode{}) > 64 {
		t.Fatalf("ropeNode is %d bytes, want at most 64", unsafe.Sizeof(ropeNode{}))
	}
}

// TestRopeBytesPerRune bounds what a 64 KiB ASCII document retains as a
// rope — leaves of one byte per character plus nodes — by what building it
// allocates: at most 1.3 bytes per rune (with []rune leaves it was 8.3 — a
// transcoded copy, then 4 bytes per rune kept in the leaves). The
// heap's live size would be the direct measure, but garbage the test
// framework leaves between two collections moves it by more than the rope.
func TestRopeBytesPerRune(t *testing.T) {
	text := strings.Repeat("0123456789abcdef", 4096)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRope(text)
	runtime.ReadMemStats(&after)
	perRune := float64(after.TotalAlloc-before.TotalAlloc) / float64(r.Len())
	if perRune > 1.3 {
		t.Fatalf("a %d-rune ASCII rope retains %.2f bytes per rune, want at most 1.3", r.Len(), perRune)
	}
	t.Logf("%.3f bytes per rune", perRune)
}
