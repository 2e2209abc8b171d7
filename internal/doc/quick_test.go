package doc

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// editScript is a quick.Generator producing a random sequence of edits.
type editScript struct {
	Initial string
	Edits   []edit
}

type edit struct {
	insert bool
	pos    int // normalized into range at application time
	text   string
	count  int
}

// Generate implements quick.Generator.
func (editScript) Generate(r *rand.Rand, size int) reflect.Value {
	s := editScript{Initial: string(randomTextQ(r, r.Intn(size%30+1)))}
	for i := 0; i < r.Intn(size%50+2); i++ {
		s.Edits = append(s.Edits, edit{
			insert: r.Intn(2) == 0,
			pos:    r.Intn(1 << 16),
			text:   string(randomTextQ(r, 1+r.Intn(5))),
			count:  1 + r.Intn(5),
		})
	}
	return reflect.ValueOf(s)
}

func randomTextQ(r *rand.Rand, n int) []rune {
	alphabet := []rune("abc XYZ0123日本éü")
	rs := make([]rune, n)
	for i := range rs {
		rs[i] = alphabet[r.Intn(len(alphabet))]
	}
	return rs
}

// applyScript normalizes and applies the edit script to a buffer.
func applyScript(b buffer, s editScript) error {
	for _, e := range s.Edits {
		n := b.Len()
		if e.insert {
			pos := 0
			if n > 0 {
				pos = e.pos % (n + 1)
			}
			if err := b.Insert(pos, e.text); err != nil {
				return err
			}
		} else if n > 0 {
			pos := e.pos % n
			count := e.count
			if pos+count > n {
				count = n - pos
			}
			if err := b.Delete(pos, count); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestQuickRopeEquivalentToSimple: any edit script leaves the rope and the
// reference buffer identical.
func TestQuickRopeEquivalentToSimple(t *testing.T) {
	f := func(s editScript) bool {
		ref := NewSimple(s.Initial)
		rope := NewRope(s.Initial)
		if err := applyScript(ref, s); err != nil {
			return false
		}
		if err := applyScript(rope, s); err != nil {
			return false
		}
		return ref.String() == rope.String() && ref.Len() == rope.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
