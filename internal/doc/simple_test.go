package doc

import "fmt"

// buffer is what the rope and its oracle share, so one test body can drive
// both.
type buffer interface {
	Len() int
	Insert(pos int, s string) error
	Delete(pos, n int) error
	Slice(i, j int) (string, error)
	String() string
}

// Simple is the reference buffer: a plain rune slice. It is the ground truth
// the rope is held to in this package's differential and fuzz tests.
type Simple struct {
	runes []rune
}

// NewSimple returns a Simple buffer initialized with s.
func NewSimple(s string) *Simple { return &Simple{runes: []rune(s)} }

func (b *Simple) Len() int { return len(b.runes) }

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

func (b *Simple) Delete(pos, n int) error {
	if pos < 0 || n < 0 || pos+n > len(b.runes) {
		return fmt.Errorf("delete [%d,%d) of %d: %w", pos, pos+n, len(b.runes), ErrRange)
	}
	b.runes = append(b.runes[:pos], b.runes[pos+n:]...)
	return nil
}

func (b *Simple) Slice(i, j int) (string, error) {
	if i < 0 || j < i || j > len(b.runes) {
		return "", fmt.Errorf("slice [%d,%d) of %d: %w", i, j, len(b.runes), ErrRange)
	}
	return string(b.runes[i:j]), nil
}

func (b *Simple) String() string { return string(b.runes) }
