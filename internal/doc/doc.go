// Package doc provides replicated-document storage for the group editor
// (paper §2: every collaborating site and the notifier keep a full copy of
// the shared document). Rope is a balanced rope whose leaves hold UTF-8
// bytes plus a rune count — O(log n) insert/delete and one byte per ASCII
// character — and is what every engine stores its replica in. The package's
// own tests hold it to a plain rune slice (simple_test.go).
//
// All positions and lengths are rune offsets, matching package op. Text that
// is not valid UTF-8 is stored as []rune(s) maps it: each invalid byte is one
// U+FFFD.
package doc

import (
	"errors"
	"fmt"

	"repro/internal/op"
)

// ErrRange indicates an out-of-bounds position or length.
var ErrRange = errors.New("doc: index out of range")

// Apply applies a traversal operation to a rope in place. The operation's
// base length must equal the rope length.
func Apply(r *Rope, o *op.Op) error {
	if r.Len() != o.BaseLen() {
		return fmt.Errorf("doc: apply op with base %d to %d-rune buffer: %w",
			o.BaseLen(), r.Len(), op.ErrLengthMismatch)
	}
	pos := 0
	for _, c := range o.Comps() {
		switch c.Kind {
		case op.KRetain:
			pos += c.N
		case op.KInsert:
			if err := r.Insert(pos, c.S); err != nil {
				return err
			}
			pos += c.N
		case op.KDelete:
			if err := r.Delete(pos, c.N); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyPositional executes positional edits in order, each clamped to the
// document — what a consistency-unaware site does with a remote operation in
// its original, untransformed form (paper §2.2: executing O2 as generated at
// site 1 yields "A1DE"). Fig. 2's replay and the engines' ModeRelay ablation
// use it. Clamped edits are always in range, so the rope cannot refuse them.
func ApplyPositional(r *Rope, edits ...op.Positional) {
	for _, p := range edits {
		n := r.Len()
		pos := min(max(p.Pos, 0), n)
		if p.Insert {
			_ = r.Insert(pos, p.Text)
		} else if count := min(p.Count, n-pos); count > 0 {
			_ = r.Delete(pos, count)
		}
	}
}
