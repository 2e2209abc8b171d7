// Package op implements the operational-transformation substrate used by the
// compressed-vector-clock group editor (Sun & Cai, IPPS 2002, §2.3).
//
// An Op is a traversal of a text document expressed as a sequence of
// components: Retain(n) skips n runes, Insert(s) adds the text s, and
// Delete(n) removes n runes. This representation is closed under composition
// and inclusion transformation and satisfies transformation property TP1,
// which is what the star-topology integration algorithm requires.
//
// All positions and lengths are measured in runes, not bytes, so concurrent
// edits on multi-byte text transform correctly.
package op

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Kind identifies the type of a single operation component.
type Kind uint8

// Component kinds.
const (
	// KRetain skips over runes without changing them.
	KRetain Kind = iota
	// KInsert inserts text at the current position.
	KInsert
	// KDelete removes runes at the current position.
	KDelete
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KRetain:
		return "retain"
	case KInsert:
		return "insert"
	case KDelete:
		return "delete"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Comp is a single component of an operation. For KRetain and KDelete the N
// field holds the rune count; for KInsert, S holds the inserted text — always
// valid UTF-8 — and N caches its rune length.
type Comp struct {
	Kind Kind
	N    int
	S    string
}

// Op is an edit operation on a text document. The zero value is a noop on an
// empty document. Ops are built with the fluent Retain/Insert/Delete methods
// and are kept in canonical form: adjacent components of the same kind are
// merged and an insert adjacent to a delete is ordered insert-first.
type Op struct {
	comps   []Comp
	baseLen int // required document length (runes) before applying
	tgtLen  int // document length (runes) after applying
}

// New returns an empty operation, ready for building.
func New() *Op { return &Op{} }

// BaseLen reports the rune length a document must have for Apply to succeed.
func (o *Op) BaseLen() int { return o.baseLen }

// TargetLen reports the rune length of the document after applying o.
func (o *Op) TargetLen() int { return o.tgtLen }

// Comps returns the canonical component sequence. The returned slice is owned
// by the operation and must not be modified.
func (o *Op) Comps() []Comp { return o.comps }

// IsNoop reports whether applying o leaves every document unchanged.
func (o *Op) IsNoop() bool {
	for _, c := range o.comps {
		if c.Kind != KRetain {
			return false
		}
	}
	return true
}

// Retain appends a retain of n runes. n <= 0 is ignored.
func (o *Op) Retain(n int) *Op {
	if n <= 0 {
		return o
	}
	o.baseLen += n
	o.tgtLen += n
	if l := len(o.comps); l > 0 && o.comps[l-1].Kind == KRetain {
		o.comps[l-1].N += n
		return o
	}
	o.comps = append(o.comps, Comp{Kind: KRetain, N: n})
	return o
}

// ValidText returns s with each byte that is not part of a valid UTF-8
// encoding replaced by U+FFFD, one per byte as []rune(s) maps them, so the
// rune count is unchanged. Valid text is returned as is, uncopied. Every
// stored text — insert components, and doc.Rope's leaves — goes through it.
func ValidText(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// Insert appends an insertion of ValidText(s), so two fragments of one
// character never concatenate into it. An empty s is ignored.
func (o *Op) Insert(s string) *Op {
	if s == "" {
		return o
	}
	s = ValidText(s)
	n := utf8.RuneCountInString(s)
	o.tgtLen += n
	l := len(o.comps)
	switch {
	case l > 0 && o.comps[l-1].Kind == KInsert:
		o.comps[l-1].S += s
		o.comps[l-1].N += n
	case l > 0 && o.comps[l-1].Kind == KDelete:
		// Canonical order: when an insert and a delete are adjacent the
		// result is the same either way, so we always store the insert
		// first. This makes structural equality meaningful.
		if l > 1 && o.comps[l-2].Kind == KInsert {
			o.comps[l-2].S += s
			o.comps[l-2].N += n
		} else {
			o.comps = append(o.comps, Comp{})
			copy(o.comps[l:], o.comps[l-1:])
			o.comps[l-1] = Comp{Kind: KInsert, N: n, S: s}
		}
	default:
		o.comps = append(o.comps, Comp{Kind: KInsert, N: n, S: s})
	}
	return o
}

// Delete appends a deletion of n runes. n <= 0 is ignored.
func (o *Op) Delete(n int) *Op {
	if n <= 0 {
		return o
	}
	o.baseLen += n
	if l := len(o.comps); l > 0 && o.comps[l-1].Kind == KDelete {
		o.comps[l-1].N += n
		return o
	}
	o.comps = append(o.comps, Comp{Kind: KDelete, N: n})
	return o
}

// Clone returns a deep copy of o.
func (o *Op) Clone() *Op {
	c := &Op{baseLen: o.baseLen, tgtLen: o.tgtLen}
	c.comps = append([]Comp(nil), o.comps...)
	return c
}

// Equal reports whether two operations have identical canonical forms.
func (o *Op) Equal(p *Op) bool {
	if o.baseLen != p.baseLen || o.tgtLen != p.tgtLen || len(o.comps) != len(p.comps) {
		return false
	}
	for i, c := range o.comps {
		if c != p.comps[i] {
			return false
		}
	}
	return true
}

// String renders the operation in a compact human-readable form such as
// "retain(4) insert(\"12\") delete(3)".
func (o *Op) String() string {
	if len(o.comps) == 0 {
		return "noop"
	}
	var b strings.Builder
	for i, c := range o.comps {
		if i > 0 {
			b.WriteByte(' ')
		}
		switch c.Kind {
		case KRetain:
			fmt.Fprintf(&b, "retain(%d)", c.N)
		case KInsert:
			fmt.Fprintf(&b, "insert(%q)", c.S)
		case KDelete:
			fmt.Fprintf(&b, "delete(%d)", c.N)
		}
	}
	return b.String()
}

// Apply applies o to doc and returns the resulting rune slice. It fails with
// ErrLengthMismatch if doc does not have exactly BaseLen runes.
func (o *Op) Apply(doc []rune) ([]rune, error) {
	if len(doc) != o.baseLen {
		return nil, fmt.Errorf("op: apply to document of %d runes: %w (need %d)",
			len(doc), ErrLengthMismatch, o.baseLen)
	}
	out := make([]rune, 0, o.tgtLen)
	pos := 0
	for _, c := range o.comps {
		switch c.Kind {
		case KRetain:
			out = append(out, doc[pos:pos+c.N]...)
			pos += c.N
		case KInsert:
			out = append(out, []rune(c.S)...)
		case KDelete:
			pos += c.N
		}
	}
	return out, nil
}

// ApplyString is Apply for string documents.
func (o *Op) ApplyString(doc string) (string, error) {
	res, err := o.Apply([]rune(doc))
	if err != nil {
		return "", err
	}
	return string(res), nil
}

// Validate checks internal consistency of the component sequence against the
// cached lengths, and that every insert is valid UTF-8 of its recorded rune
// length. Tests use it; FromComps, which decoders call, enforces the same.
func (o *Op) Validate() error {
	base, tgt := 0, 0
	for i, c := range o.comps {
		switch c.Kind {
		case KRetain:
			if c.N <= 0 {
				return fmt.Errorf("op: comp %d: non-positive retain: %w", i, ErrInvalidOp)
			}
			base += c.N
			tgt += c.N
		case KInsert:
			if c.S == "" || !utf8.ValidString(c.S) || c.N != utf8.RuneCountInString(c.S) {
				return fmt.Errorf("op: comp %d: bad insert: %w", i, ErrInvalidOp)
			}
			tgt += c.N
		case KDelete:
			if c.N <= 0 {
				return fmt.Errorf("op: comp %d: non-positive delete: %w", i, ErrInvalidOp)
			}
			base += c.N
		default:
			return fmt.Errorf("op: comp %d: unknown kind %d: %w", i, c.Kind, ErrInvalidOp)
		}
	}
	if base != o.baseLen || tgt != o.tgtLen {
		return fmt.Errorf("op: cached lengths (%d,%d) != computed (%d,%d): %w",
			o.baseLen, o.tgtLen, base, tgt, ErrInvalidOp)
	}
	return nil
}

// FromComps reconstructs an operation from a raw component sequence (as read
// off the wire or a checkpoint), recomputing lengths and canonicalizing. An
// insert whose text is not valid UTF-8 is refused, not repaired: it did not
// come from Insert.
func FromComps(comps []Comp) (*Op, error) {
	o := New()
	for i, c := range comps {
		switch c.Kind {
		case KRetain:
			if c.N <= 0 {
				return nil, fmt.Errorf("op: comp %d: non-positive retain: %w", i, ErrInvalidOp)
			}
			o.Retain(c.N)
		case KInsert:
			if c.S == "" {
				return nil, fmt.Errorf("op: comp %d: empty insert: %w", i, ErrInvalidOp)
			}
			if !utf8.ValidString(c.S) {
				return nil, fmt.Errorf("op: comp %d: insert is not valid UTF-8: %w", i, ErrInvalidOp)
			}
			o.Insert(c.S)
		case KDelete:
			if c.N <= 0 {
				return nil, fmt.Errorf("op: comp %d: non-positive delete: %w", i, ErrInvalidOp)
			}
			o.Delete(c.N)
		default:
			return nil, fmt.Errorf("op: comp %d: unknown kind %d: %w", i, c.Kind, ErrInvalidOp)
		}
	}
	return o, nil
}
