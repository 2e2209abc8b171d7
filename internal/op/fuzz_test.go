package op

import (
	"strings"
	"testing"
)

// fuzzAlphabet mixes ASCII with multi-byte runes so the byte/rune distinction
// in component lengths is exercised.
var fuzzAlphabet = []rune("ab π€")

// buildFuzzOp interprets prog as instruction pairs (kind, arg) over a document
// of docLen runes and returns a well-formed op with BaseLen()==docLen: retains
// and deletes are clamped to the unconsumed remainder, and the tail of the
// document is retained. Every byte program maps to a valid op, so the fuzzer
// spends its budget on Transform/Compose rather than on input rejection.
func buildFuzzOp(docLen int, prog []byte) *Op {
	o := New()
	consumed := 0
	for i := 0; i+1 < len(prog); i += 2 {
		arg := int(prog[i+1])
		switch prog[i] % 3 {
		case 0, 1:
			rem := docLen - consumed
			if rem <= 0 {
				continue
			}
			n := arg%rem + 1
			if prog[i]%3 == 0 {
				o.Retain(n)
			} else {
				o.Delete(n)
			}
			consumed += n
		case 2:
			r := fuzzAlphabet[arg%len(fuzzAlphabet)]
			o.Insert(strings.Repeat(string(r), arg%3+1))
		}
	}
	if consumed < docLen {
		o.Retain(docLen - consumed)
	}
	return o
}

// FuzzTransform checks TP1 (paper §2: convergence for two concurrent
// operations) plus the structural invariants of Transform on arbitrary
// concurrent op pairs: both transformed results validate, their lengths chain
// (a' applies after b and vice versa), and both execution orders converge to
// the same document.
func FuzzTransform(f *testing.F) {
	f.Add("hello world", []byte{0, 4, 2, 7, 1, 2}, []byte{1, 3, 2, 1})
	f.Add("", []byte{2, 5, 2, 8}, []byte{2, 2})
	f.Add("aπ€b", []byte{1, 1, 2, 3, 0, 0}, []byte{0, 1, 1, 9})
	f.Fuzz(func(t *testing.T, doc string, prog1, prog2 []byte) {
		if len(doc) > 4096 || len(prog1) > 64 || len(prog2) > 64 {
			t.Skip("oversized input")
		}
		docLen := RuneLen(doc)
		a := buildFuzzOp(docLen, prog1)
		b := buildFuzzOp(docLen, prog2)
		if err := a.Validate(); err != nil {
			t.Fatalf("generator produced invalid a: %v", err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("generator produced invalid b: %v", err)
		}

		a1, b1, err := Transform(a, b)
		if err != nil {
			t.Fatalf("Transform(%v, %v): %v", a, b, err)
		}
		if err := a1.Validate(); err != nil {
			t.Fatalf("a' invalid: %v (a=%v b=%v a'=%v)", err, a, b, a1)
		}
		if err := b1.Validate(); err != nil {
			t.Fatalf("b' invalid: %v (a=%v b=%v b'=%v)", err, a, b, b1)
		}
		if a1.BaseLen() != b.TargetLen() {
			t.Fatalf("a'.BaseLen()=%d, want b.TargetLen()=%d", a1.BaseLen(), b.TargetLen())
		}
		if b1.BaseLen() != a.TargetLen() {
			t.Fatalf("b'.BaseLen()=%d, want a.TargetLen()=%d", b1.BaseLen(), a.TargetLen())
		}

		viaA, err := a.ApplyString(doc)
		if err != nil {
			t.Fatalf("apply a: %v", err)
		}
		viaA, err = b1.ApplyString(viaA)
		if err != nil {
			t.Fatalf("apply b' after a: %v", err)
		}
		viaB, err := b.ApplyString(doc)
		if err != nil {
			t.Fatalf("apply b: %v", err)
		}
		viaB, err = a1.ApplyString(viaB)
		if err != nil {
			t.Fatalf("apply a' after b: %v", err)
		}
		if viaA != viaB {
			t.Fatalf("TP1 violated:\n  doc=%q a=%v b=%v\n  a,b'=%q\n  b,a'=%q", doc, a, b, viaA, viaB)
		}
	})
}

// FuzzCompose checks that composing two sequential operations is equivalent
// to applying them one after the other, and that the composition's lengths
// chain correctly. It then inverts the composition: the inverse validates,
// and the composition composed with its inverse gives back the base text.
func FuzzCompose(f *testing.F) {
	f.Add("hello world", []byte{0, 4, 2, 7, 1, 2}, []byte{1, 3, 2, 1})
	f.Add("", []byte{2, 5, 2, 8}, []byte{2, 2})
	f.Add("aπ€b", []byte{1, 1, 2, 3, 0, 0}, []byte{0, 1, 1, 9})
	f.Fuzz(func(t *testing.T, doc string, prog1, prog2 []byte) {
		if len(doc) > 4096 || len(prog1) > 64 || len(prog2) > 64 {
			t.Skip("oversized input")
		}
		docLen := RuneLen(doc)
		a := buildFuzzOp(docLen, prog1)
		b := buildFuzzOp(a.TargetLen(), prog2)
		if err := a.Validate(); err != nil {
			t.Fatalf("generator produced invalid a: %v", err)
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("generator produced invalid b: %v", err)
		}

		ab, err := Compose(a, b)
		if err != nil {
			t.Fatalf("Compose(%v, %v): %v", a, b, err)
		}
		if err := ab.Validate(); err != nil {
			t.Fatalf("a·b invalid: %v (a=%v b=%v a·b=%v)", err, a, b, ab)
		}
		if ab.BaseLen() != a.BaseLen() {
			t.Fatalf("(a·b).BaseLen()=%d, want a.BaseLen()=%d", ab.BaseLen(), a.BaseLen())
		}
		if ab.TargetLen() != b.TargetLen() {
			t.Fatalf("(a·b).TargetLen()=%d, want b.TargetLen()=%d", ab.TargetLen(), b.TargetLen())
		}

		stepwise, err := a.ApplyString(doc)
		if err != nil {
			t.Fatalf("apply a: %v", err)
		}
		stepwise, err = b.ApplyString(stepwise)
		if err != nil {
			t.Fatalf("apply b after a: %v", err)
		}
		composed, err := ab.ApplyString(doc)
		if err != nil {
			t.Fatalf("apply a·b: %v", err)
		}
		if composed != stepwise {
			t.Fatalf("Compose diverges:\n  doc=%q a=%v b=%v\n  a·b=%q\n  a;b=%q", doc, a, b, composed, stepwise)
		}

		runes := []rune(doc)
		inv, err := Invert(ab, len(runes), func(i, j int) (string, error) { return string(runes[i:j]), nil })
		if err != nil {
			t.Fatalf("Invert(%v): %v", ab, err)
		}
		if err := inv.Validate(); err != nil {
			t.Fatalf("inverse invalid: %v (a·b=%v inverse=%v)", err, ab, inv)
		}
		roundTrip, err := Compose(ab, inv)
		if err != nil {
			t.Fatalf("Compose(a·b, inverse): %v", err)
		}
		if err := roundTrip.Validate(); err != nil {
			t.Fatalf("a·b·inverse invalid: %v", err)
		}
		back, err := roundTrip.ApplyString(doc)
		if err != nil {
			t.Fatalf("apply a·b·inverse: %v", err)
		}
		if back != string(runes) {
			t.Fatalf("a·b·inverse is not the identity:\n  doc=%q a·b=%v inverse=%v\n  got %q", doc, ab, inv, back)
		}
	})
}
