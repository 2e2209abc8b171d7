package op

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// opCase is a quick.Generator producing a random document and two random
// operations over it — the raw material for the algebraic laws below.
type opCase struct {
	Doc  []rune
	A, B *Op
}

// Generate implements quick.Generator.
func (opCase) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(size%40 + 1)
	doc := randDoc(r, n)
	return reflect.ValueOf(opCase{
		Doc: doc,
		A:   randOp(r, n),
		B:   randOp(r, n),
	})
}

// TestQuickTP1 is transformation property TP1 as a quick property.
func TestQuickTP1(t *testing.T) {
	f := func(c opCase) bool {
		a1, b1, err := Transform(c.A, c.B)
		if err != nil {
			return false
		}
		viaA, err := c.A.Apply(c.Doc)
		if err != nil {
			return false
		}
		viaA, err = b1.Apply(viaA)
		if err != nil {
			return false
		}
		viaB, err := c.B.Apply(c.Doc)
		if err != nil {
			return false
		}
		viaB, err = a1.Apply(viaB)
		if err != nil {
			return false
		}
		return string(viaA) == string(viaB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickTransformPreservesLengths: a' expects b's output length and vice
// versa, and both produce the same target length.
func TestQuickTransformPreservesLengths(t *testing.T) {
	f := func(c opCase) bool {
		a1, b1, err := Transform(c.A, c.B)
		if err != nil {
			return false
		}
		if a1.BaseLen() != c.B.TargetLen() || b1.BaseLen() != c.A.TargetLen() {
			return false
		}
		return a1.TargetLen() == b1.TargetLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickComposeAgreesWithSequentialApply.
func TestQuickComposeAgreesWithSequentialApply(t *testing.T) {
	f := func(c opCase) bool {
		mid, err := c.A.Apply(c.Doc)
		if err != nil {
			return false
		}
		// Rebuild B over the intermediate length so composition is legal.
		r := rand.New(rand.NewSource(int64(len(mid))))
		b := randOp(r, len(mid))
		ab, err := Compose(c.A, b)
		if err != nil {
			return false
		}
		seq, err := b.Apply(mid)
		if err != nil {
			return false
		}
		direct, err := ab.Apply(c.Doc)
		if err != nil {
			return false
		}
		return string(seq) == string(direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInvertRoundTrip.
func TestQuickInvertRoundTrip(t *testing.T) {
	f := func(c opCase) bool {
		inv, err := invertRunes(c.A, c.Doc)
		if err != nil {
			return false
		}
		after, err := c.A.Apply(c.Doc)
		if err != nil {
			return false
		}
		back, err := inv.Apply(after)
		if err != nil {
			return false
		}
		return string(back) == string(c.Doc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCanonicalFormStable: rebuilding an op from its own components
// yields a structurally identical op (canonical form is a fixed point).
func TestQuickCanonicalFormStable(t *testing.T) {
	f := func(c opCase) bool {
		rebuilt, err := FromComps(c.A.Comps())
		if err != nil {
			return false
		}
		return rebuilt.Equal(c.A)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPositionalsEquivalence: applying the positional decomposition
// sequentially equals applying the traversal op.
func TestQuickPositionalsEquivalence(t *testing.T) {
	f := func(c opCase) bool {
		want, err := c.A.ApplyString(string(c.Doc))
		if err != nil {
			return false
		}
		cur := string(c.Doc)
		for _, p := range Positionals(c.A) {
			var prim *Op
			var err error
			if p.Insert {
				prim, err = NewInsert(RuneLen(cur), p.Pos, p.Text)
			} else {
				prim, err = NewDelete(RuneLen(cur), p.Pos, p.Count)
			}
			if err != nil {
				return false
			}
			cur, err = prim.ApplyString(cur)
			if err != nil {
				return false
			}
		}
		return cur == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
