package op

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// randDoc returns a random document of n runes, mixing ASCII and multi-byte
// runes so rune/byte confusion is caught.
func randDoc(r *rand.Rand, n int) []rune {
	alphabet := []rune("abcdefghij 0123456789éüπ日本語")
	doc := make([]rune, n)
	for i := range doc {
		doc[i] = alphabet[r.Intn(len(alphabet))]
	}
	return doc
}

// randOp builds a random valid operation over a base document of baseLen
// runes.
func randOp(r *rand.Rand, baseLen int) *Op {
	o := New()
	pos := 0
	for pos < baseLen {
		n := 1 + r.Intn(4)
		if n > baseLen-pos {
			n = baseLen - pos
		}
		switch r.Intn(3) {
		case 0:
			o.Retain(n)
			pos += n
		case 1:
			o.Insert(string(randDoc(r, 1+r.Intn(3))))
		case 2:
			o.Delete(n)
			pos += n
		}
	}
	if r.Intn(3) == 0 {
		o.Insert(string(randDoc(r, 1+r.Intn(3))))
	}
	return o
}

func mustApply(t *testing.T, o *Op, doc []rune) []rune {
	t.Helper()
	res, err := o.Apply(doc)
	if err != nil {
		t.Fatalf("apply %v to %q: %v", o, string(doc), err)
	}
	return res
}

func TestBuilderCanonicalMerge(t *testing.T) {
	o := New().Retain(2).Retain(3).Insert("ab").Insert("cd").Delete(1).Delete(2)
	want := New().Retain(5).Insert("abcd").Delete(3)
	if !o.Equal(want) {
		t.Fatalf("canonical form: got %v want %v", o, want)
	}
	if len(o.Comps()) != 3 {
		t.Fatalf("expected 3 merged comps, got %d: %v", len(o.Comps()), o)
	}
}

func TestBuilderInsertAfterDeleteCanonicalOrder(t *testing.T) {
	// delete-then-insert and insert-then-delete are the same operation;
	// the builder must store them identically (insert first).
	a := New().Retain(1).Delete(2).Insert("xy").Retain(1)
	b := New().Retain(1).Insert("xy").Delete(2).Retain(1)
	if !a.Equal(b) {
		t.Fatalf("canonical ordering failed: %v vs %v", a, b)
	}
	got, err := a.ApplyString("abcd")
	if err != nil {
		t.Fatal(err)
	}
	if got != "axyd" {
		t.Fatalf("apply: got %q want %q", got, "axyd")
	}
}

func TestBuilderInsertAfterDeleteMergesWithPriorInsert(t *testing.T) {
	o := New().Insert("ab").Delete(1).Insert("cd")
	want := New().Insert("abcd").Delete(1)
	if !o.Equal(want) {
		t.Fatalf("got %v want %v", o, want)
	}
}

func TestBuilderIgnoresZeroAndNegative(t *testing.T) {
	o := New().Retain(0).Retain(-3).Insert("").Delete(0).Delete(-1)
	if len(o.Comps()) != 0 || o.BaseLen() != 0 || o.TargetLen() != 0 {
		t.Fatalf("zero-length pieces must be ignored, got %v", o)
	}
	if !o.IsNoop() {
		t.Fatal("empty op must be a noop")
	}
}

func TestApplyBasics(t *testing.T) {
	cases := []struct {
		name string
		o    *Op
		in   string
		want string
	}{
		{"noop", New().Retain(5), "hello", "hello"},
		{"insert-front", New().Insert("ab").Retain(3), "cde", "abcde"},
		{"insert-end", New().Retain(3).Insert("xy"), "abc", "abcxy"},
		{"delete-all", New().Delete(4), "abcd", ""},
		{"mixed", New().Retain(1).Insert("12").Retain(1).Delete(3), "ABCDE", "A12B"},
		{"empty-doc", New().Insert("seed"), "", "seed"},
		{"multibyte", New().Retain(1).Delete(1).Insert("本"), "日語", "日本"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.o.ApplyString(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("got %q want %q", got, tc.want)
			}
		})
	}
}

func TestApplyLengthMismatch(t *testing.T) {
	o := New().Retain(3)
	if _, err := o.ApplyString("ab"); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
	if _, err := o.ApplyString("abcd"); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
}

func TestLengths(t *testing.T) {
	o := New().Retain(2).Insert("xyz").Delete(4).Retain(1)
	if o.BaseLen() != 7 {
		t.Fatalf("base len: got %d want 7", o.BaseLen())
	}
	if o.TargetLen() != 6 {
		t.Fatalf("target len: got %d want 6", o.TargetLen())
	}
}

func TestIsNoop(t *testing.T) {
	if !New().IsNoop() || !New().Retain(10).IsNoop() {
		t.Fatal("pure retains must be noops")
	}
	if New().Insert("x").IsNoop() || New().Delete(1).IsNoop() {
		t.Fatal("inserts/deletes are not noops")
	}
}

func TestCloneIsDeep(t *testing.T) {
	o := New().Retain(1).Insert("ab").Delete(1)
	c := o.Clone()
	c.Retain(5)
	if o.Equal(c) {
		t.Fatal("mutating clone must not affect original")
	}
	if o.BaseLen() != 2 || c.BaseLen() != 7 {
		t.Fatalf("lengths diverged wrongly: %d %d", o.BaseLen(), c.BaseLen())
	}
}

func TestStringRendering(t *testing.T) {
	o := New().Retain(4).Insert("12").Delete(3)
	s := o.String()
	for _, want := range []string{"retain(4)", `insert("12")`, "delete(3)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if New().String() != "noop" {
		t.Fatalf("empty op renders %q", New().String())
	}
}

func TestValidate(t *testing.T) {
	o := New().Retain(2).Insert("abc").Delete(1)
	if err := o.Validate(); err != nil {
		t.Fatalf("valid op rejected: %v", err)
	}
	bad := &Op{comps: []Comp{{Kind: KRetain, N: -1}}}
	if err := bad.Validate(); !errors.Is(err, ErrInvalidOp) {
		t.Fatalf("want ErrInvalidOp, got %v", err)
	}
	badLen := &Op{comps: []Comp{{Kind: KRetain, N: 2}}, baseLen: 3, tgtLen: 2}
	if err := badLen.Validate(); !errors.Is(err, ErrInvalidOp) {
		t.Fatalf("want ErrInvalidOp for cached length mismatch, got %v", err)
	}
}

func TestFromComps(t *testing.T) {
	src := New().Retain(2).Insert("né").Delete(1)
	rebuilt, err := FromComps(src.Comps())
	if err != nil {
		t.Fatal(err)
	}
	if !rebuilt.Equal(src) {
		t.Fatalf("round-trip mismatch: %v vs %v", rebuilt, src)
	}
	if _, err := FromComps([]Comp{{Kind: KInsert}}); !errors.Is(err, ErrInvalidOp) {
		t.Fatalf("empty insert must be rejected, got %v", err)
	}
	if _, err := FromComps([]Comp{{Kind: Kind(9), N: 1}}); !errors.Is(err, ErrInvalidOp) {
		t.Fatalf("unknown kind must be rejected, got %v", err)
	}
}

// TestInsertTextIsValidUTF8: two inserts that each pass Validate ("\xe6",
// then "\x97\xa5" right after it) used to compose into `insert "日"` with
// N=3, which fails it — an op whose TargetLen was 5 producing a 3-rune
// document. Insert text is now valid UTF-8 by construction (each invalid
// byte one U+FFFD, as []rune maps it), and FromComps refuses the same op
// arriving from a wire frame or a checkpoint.
func TestInsertTextIsValidUTF8(t *testing.T) {
	const fffd3 = "���"
	for _, tc := range []struct {
		name       string
		build      func() (*Op, error)
		base, want string
	}{
		{"compose of the two fragments", func() (*Op, error) {
			return Compose(New().Retain(1).Insert("\xe6").Retain(1), New().Retain(2).Insert("\x97\xa5").Retain(1))
		}, "ab", "a" + fffd3 + "b"},
		{"fragments in one builder", func() (*Op, error) {
			return New().Retain(1).Insert("\xe6").Insert("\x97\xa5").Retain(1), nil
		}, "ab", "a" + fffd3 + "b"},
		{"NewInsert", func() (*Op, error) { return NewInsert(2, 2, "x\xffy") }, "ab", "abx�y"},
		{"NewReplace", func() (*Op, error) { return NewReplace(2, 0, 1, "\xed\xa0\x80") }, "ab", fffd3 + "b"},
		{"valid text untouched", func() (*Op, error) { return NewInsert(0, 0, "日本") }, "", "日本"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Validate(); err != nil {
				t.Fatalf("%v: %v", o, err)
			}
			got, err := o.ApplyString(tc.base)
			if err != nil || got != tc.want {
				t.Fatalf("%v applied to %q = %q (%v), want %q", o, tc.base, got, err, tc.want)
			}
			if o.TargetLen() != RuneLen(got) {
				t.Fatalf("TargetLen %d, result has %d runes", o.TargetLen(), RuneLen(got))
			}
		})
	}

	for i, comps := range [][]Comp{
		{{Kind: KRetain, N: 1}, {Kind: KInsert, S: "\xe6"}, {Kind: KInsert, S: "\x97\xa5"}, {Kind: KRetain, N: 1}},
		{{Kind: KInsert, S: "ok\xff"}},
	} {
		if o, err := FromComps(comps); !errors.Is(err, ErrInvalidOp) {
			t.Fatalf("FromComps case %d = %v, %v; want ErrInvalidOp", i, o, err)
		}
	}
	raw := &Op{comps: []Comp{{Kind: KInsert, N: 3, S: "\xe6\x97"}}, tgtLen: 3}
	if err := raw.Validate(); !errors.Is(err, ErrInvalidOp) {
		t.Fatalf("Validate accepted an insert of invalid UTF-8: %v", err)
	}
}

func TestKindString(t *testing.T) {
	if KRetain.String() != "retain" || KInsert.String() != "insert" || KDelete.String() != "delete" {
		t.Fatal("kind names wrong")
	}
	if Kind(7).String() == "" {
		t.Fatal("unknown kind must render something")
	}
}

func TestRandomOpsApplyConsistently(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		doc := randDoc(r, r.Intn(40))
		o := randOp(r, len(doc))
		if err := o.Validate(); err != nil {
			t.Fatalf("random op invalid: %v", err)
		}
		res := mustApply(t, o, doc)
		if len(res) != o.TargetLen() {
			t.Fatalf("target length %d but got %d runes", o.TargetLen(), len(res))
		}
	}
}
