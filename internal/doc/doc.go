// Package doc provides replicated-document storage for the group editor
// (paper §2: every collaborating site and the notifier keep a full copy of
// the shared document). Two implementations of Buffer are provided:
//
//   - Rope: a balanced rope whose leaves hold UTF-8 bytes plus a rune count,
//     O(log n) insert/delete and one byte per ASCII character — what every
//     engine stores its replica in;
//   - Simple: a plain rune slice, the obviously-correct reference used for
//     differential testing.
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

// Buffer is an editable text document addressed by rune offsets.
type Buffer interface {
	// Len returns the document length in runes.
	Len() int
	// Insert places s so its first rune lands at rune index pos.
	Insert(pos int, s string) error
	// Delete removes n runes starting at rune index pos.
	Delete(pos, n int) error
	// Slice returns the text in [i, j) as a string.
	Slice(i, j int) (string, error)
	// String returns the whole document.
	String() string
}

// Apply applies a traversal operation to a buffer in place. The operation's
// base length must equal the buffer length.
func Apply(b Buffer, o *op.Op) error {
	if b.Len() != o.BaseLen() {
		return fmt.Errorf("doc: apply op with base %d to %d-rune buffer: %w",
			o.BaseLen(), b.Len(), op.ErrLengthMismatch)
	}
	pos := 0
	for _, c := range o.Comps() {
		switch c.Kind {
		case op.KRetain:
			pos += c.N
		case op.KInsert:
			if err := b.Insert(pos, c.S); err != nil {
				return err
			}
			pos += c.N
		case op.KDelete:
			if err := b.Delete(pos, c.N); err != nil {
				return err
			}
		}
	}
	return nil
}

// Simple is the reference Buffer: a plain rune slice. It is the ground truth
// in differential tests.
type Simple struct {
	runes []rune
}

// NewSimple returns a Simple buffer initialized with s.
func NewSimple(s string) *Simple { return &Simple{runes: []rune(s)} }

// Len implements Buffer.
func (b *Simple) Len() int { return len(b.runes) }

// Insert implements Buffer.
func (b *Simple) Insert(pos int, s string) error {
	if pos < 0 || pos > len(b.runes) {
		return fmt.Errorf("insert at %d of %d: %w", pos, len(b.runes), ErrRange)
	}
	ins := []rune(s)
	b.runes = append(b.runes, make([]rune, len(ins))...)
	copy(b.runes[pos+len(ins):], b.runes[pos:])
	copy(b.runes[pos:], ins)
	return nil
}

// Delete implements Buffer.
func (b *Simple) Delete(pos, n int) error {
	if pos < 0 || n < 0 || pos+n > len(b.runes) {
		return fmt.Errorf("delete [%d,%d) of %d: %w", pos, pos+n, len(b.runes), ErrRange)
	}
	b.runes = append(b.runes[:pos], b.runes[pos+n:]...)
	return nil
}

// Slice implements Buffer.
func (b *Simple) Slice(i, j int) (string, error) {
	if i < 0 || j < i || j > len(b.runes) {
		return "", fmt.Errorf("slice [%d,%d) of %d: %w", i, j, len(b.runes), ErrRange)
	}
	return string(b.runes[i:j]), nil
}

// String implements Buffer.
func (b *Simple) String() string { return string(b.runes) }
