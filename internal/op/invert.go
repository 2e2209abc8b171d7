package op

import "fmt"

// Invert returns the operation that undoes o on the document o was applied
// to — the state *before* o, docLen runes long. For every valid doc:
//
//	apply(apply(doc, o), Invert(o, len(doc), doc.Slice)) == doc
//
// Inversion needs the base document because a delete does not record the
// text it removed; slice (doc.Rope.Slice fits) is asked for exactly those
// runs, one call per delete component, so the cost is the deleted text plus
// one lookup per run rather than a copy of the document.
func Invert(o *Op, docLen int, slice func(i, j int) (string, error)) (*Op, error) {
	if docLen != o.baseLen {
		return nil, fmt.Errorf("op: invert against %d runes: %w (need %d)",
			docLen, ErrLengthMismatch, o.baseLen)
	}
	inv := New()
	pos := 0
	for _, c := range o.comps {
		switch c.Kind {
		case KRetain:
			inv.Retain(c.N)
			pos += c.N
		case KInsert:
			inv.Delete(c.N)
		case KDelete:
			deleted, err := slice(pos, pos+c.N)
			if err != nil {
				return nil, fmt.Errorf("op: invert: read deleted runes [%d,%d): %w", pos, pos+c.N, err)
			}
			inv.Insert(deleted)
			pos += c.N
		}
	}
	return inv, nil
}
