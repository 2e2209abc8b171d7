package doc

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/op"
)

// buffers returns one of each implementation, initialized with s.
func buffers(s string) map[string]buffer {
	return map[string]buffer{
		"simple": NewSimple(s),
		"rope":   NewRope(s),
	}
}

func TestEmptyBuffers(t *testing.T) {
	for name, b := range buffers("") {
		if b.Len() != 0 || b.String() != "" {
			t.Fatalf("%s: empty buffer: len %d, %q", name, b.Len(), b.String())
		}
		if err := b.Insert(0, "hello"); err != nil {
			t.Fatalf("%s: insert into empty: %v", name, err)
		}
		if b.String() != "hello" {
			t.Fatalf("%s: got %q", name, b.String())
		}
	}
}

func TestBasicEditing(t *testing.T) {
	for name, b := range buffers("ABCDE") {
		if err := b.Insert(1, "12"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.String() != "A12BCDE" {
			t.Fatalf("%s: after insert: %q", name, b.String())
		}
		if err := b.Delete(4, 3); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.String() != "A12B" {
			t.Fatalf("%s: after delete: %q (the paper's intention-preserved result)", name, b.String())
		}
	}
}

func TestMultibyte(t *testing.T) {
	for name, b := range buffers("日本") {
		if err := b.Insert(1, "のに"); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.String() != "日のに本" {
			t.Fatalf("%s: %q", name, b.String())
		}
		if b.Len() != 4 {
			t.Fatalf("%s: rune len %d", name, b.Len())
		}
		if err := b.Delete(1, 2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if b.String() != "日本" {
			t.Fatalf("%s: %q", name, b.String())
		}
	}
}

func TestSlice(t *testing.T) {
	for name, b := range buffers("hello world") {
		s, err := b.Slice(6, 11)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s != "world" {
			t.Fatalf("%s: slice got %q", name, s)
		}
		if s, err = b.Slice(3, 3); err != nil || s != "" {
			t.Fatalf("%s: empty slice: %q, %v", name, s, err)
		}
	}
}

func TestRangeErrors(t *testing.T) {
	for name, b := range buffers("abc") {
		if err := b.Insert(4, "x"); !errors.Is(err, ErrRange) {
			t.Fatalf("%s: insert past end: %v", name, err)
		}
		if err := b.Insert(-1, "x"); !errors.Is(err, ErrRange) {
			t.Fatalf("%s: negative insert: %v", name, err)
		}
		if err := b.Delete(2, 2); !errors.Is(err, ErrRange) {
			t.Fatalf("%s: delete past end: %v", name, err)
		}
		if err := b.Delete(0, -1); !errors.Is(err, ErrRange) {
			t.Fatalf("%s: negative delete: %v", name, err)
		}
		if _, err := b.Slice(2, 1); !errors.Is(err, ErrRange) {
			t.Fatalf("%s: inverted slice: %v", name, err)
		}
		if _, err := b.Slice(0, 4); !errors.Is(err, ErrRange) {
			t.Fatalf("%s: slice past end: %v", name, err)
		}
		if b.String() != "abc" {
			t.Fatalf("%s: failed ops must not mutate: %q", name, b.String())
		}
	}
}

// TestDifferentialRandomEdits drives both implementations with the same
// random edit stream and demands identical contents at every step.
func TestDifferentialRandomEdits(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	alphabet := "abcXYZ 日本éü"
	ref := NewSimple("")
	rope := NewRope("")
	for i := 0; i < 4000; i++ {
		n := ref.Len()
		if n == 0 || r.Intn(3) != 0 {
			pos := 0
			if n > 0 {
				pos = r.Intn(n + 1)
			}
			var sb strings.Builder
			for k := 0; k < 1+r.Intn(6); k++ {
				rs := []rune(alphabet)
				sb.WriteRune(rs[r.Intn(len(rs))])
			}
			s := sb.String()
			for name, b := range map[string]buffer{"ref": ref, "rope": rope} {
				if err := b.Insert(pos, s); err != nil {
					t.Fatalf("iter %d: %s insert: %v", i, name, err)
				}
			}
		} else {
			pos := r.Intn(n)
			del := 1 + r.Intn(min(4, n-pos))
			for name, b := range map[string]buffer{"ref": ref, "rope": rope} {
				if err := b.Delete(pos, del); err != nil {
					t.Fatalf("iter %d: %s delete: %v", i, name, err)
				}
			}
		}
		if i%97 == 0 {
			want := ref.String()
			if rope.String() != want {
				t.Fatalf("iter %d: rope diverged", i)
			}
		}
	}
	want := ref.String()
	if rope.String() != want {
		t.Fatal("final states diverged")
	}
	// Random slices must agree too.
	for i := 0; i < 200; i++ {
		a := r.Intn(ref.Len() + 1)
		b := a + r.Intn(ref.Len()-a+1)
		s1, _ := ref.Slice(a, b)
		s2, _ := rope.Slice(a, b)
		if s1 != s2 {
			t.Fatalf("slice [%d,%d) disagreement", a, b)
		}
	}
}

func TestRopeStaysBalanced(t *testing.T) {
	r := NewRope("")
	// Pathological pattern: always insert at the front.
	for i := 0; i < 20000; i++ {
		if err := r.Insert(0, "ab"); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 40000 {
		t.Fatalf("len %d", r.Len())
	}
	if d := r.Depth(); d > 40 {
		t.Fatalf("rope depth %d after 20k front inserts — rebalancing broken", d)
	}
}

func TestRopeLargeInit(t *testing.T) {
	s := strings.Repeat("0123456789", 2000) // 20k runes, forces multi-leaf init
	r := NewRope(s)
	if r.String() != s {
		t.Fatal("large init mismatch")
	}
	got, err := r.Slice(9995, 10005)
	if err != nil {
		t.Fatal(err)
	}
	if got != "5678901234" {
		t.Fatalf("mid slice: %q", got)
	}
}

func TestApplyOp(t *testing.T) {
	o := op.New().Retain(1).Insert("12").Retain(1).Delete(3)
	b := NewRope("ABCDE")
	if err := Apply(b, o); err != nil {
		t.Fatal(err)
	}
	if b.String() != "A12B" {
		t.Fatalf("apply op: %q", b.String())
	}
}

func TestApplyOpLengthMismatch(t *testing.T) {
	o := op.New().Retain(10)
	b := NewRope("abc")
	if err := Apply(b, o); !errors.Is(err, op.ErrLengthMismatch) {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
}

// TestApplyOpDifferential: applying a random op to a rope via doc.Apply
// equals op.Apply on the raw runes.
func TestApplyOpDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for i := 0; i < 800; i++ {
		base := randomText(r, r.Intn(60))
		o := randomOpFor(r, base)
		want, err := o.ApplyString(base)
		if err != nil {
			t.Fatal(err)
		}
		b := NewRope(base)
		if err := Apply(b, o); err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if b.String() != want {
			t.Fatalf("iter %d: got %q want %q", i, b.String(), want)
		}
	}
}

func randomText(r *rand.Rand, n int) string {
	alphabet := []rune("abcdefgh 123日本")
	rs := make([]rune, n)
	for i := range rs {
		rs[i] = alphabet[r.Intn(len(alphabet))]
	}
	return string(rs)
}

func randomOpFor(r *rand.Rand, base string) *op.Op {
	n := len([]rune(base))
	o := op.New()
	pos := 0
	for pos < n {
		step := 1 + r.Intn(5)
		if step > n-pos {
			step = n - pos
		}
		switch r.Intn(3) {
		case 0:
			o.Retain(step)
			pos += step
		case 1:
			o.Insert(randomText(r, 1+r.Intn(4)))
		default:
			o.Delete(step)
			pos += step
		}
	}
	return o
}
