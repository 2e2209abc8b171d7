package op

import (
	"errors"
	"math/rand"
	"testing"
)

// invertRunes inverts o against a document held as runes.
func invertRunes(o *Op, doc []rune) (*Op, error) {
	return Invert(o, len(doc), func(i, j int) (string, error) { return string(doc[i:j]), nil })
}

func TestInvertBasics(t *testing.T) {
	doc := []rune("ABCDE")
	o := New().Retain(1).Insert("12").Retain(1).Delete(3)
	inv, err := invertRunes(o, doc)
	if err != nil {
		t.Fatal(err)
	}
	after := mustApply(t, o, doc)
	back := mustApply(t, inv, after)
	if string(back) != "ABCDE" {
		t.Fatalf("invert round-trip: got %q", string(back))
	}
	// The inverse of the delete must restore the deleted text "CDE".
	wantInv := New().Retain(1).Delete(2).Retain(1).Insert("CDE")
	if !inv.Equal(wantInv) {
		t.Fatalf("inverse: got %v want %v", inv, wantInv)
	}
}

func TestInvertLengthMismatch(t *testing.T) {
	o := New().Retain(3)
	if _, err := invertRunes(o, []rune("ab")); !errors.Is(err, ErrLengthMismatch) {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
}

func TestInvertRoundTripRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		doc := randDoc(r, r.Intn(30))
		o := randOp(r, len(doc))
		inv, err := invertRunes(o, doc)
		if err != nil {
			t.Fatalf("iter %d: invert: %v", i, err)
		}
		back := mustApply(t, inv, mustApply(t, o, doc))
		if string(back) != string(doc) {
			t.Fatalf("iter %d: round trip %q -> %q", i, string(doc), string(back))
		}
		// Double inversion restores the original operation extensionally.
		inv2, err := invertRunes(inv, mustApply(t, o, doc))
		if err != nil {
			t.Fatal(err)
		}
		if string(mustApply(t, inv2, doc)) != string(mustApply(t, o, doc)) {
			t.Fatalf("iter %d: double inversion differs", i)
		}
	}
}
