package core

import (
	"errors"
	"fmt"

	"repro/internal/op"
)

// Undo support (an extension beyond the paper, built from the same
// machinery): undoing a local operation generates a *new* operation — the
// inverse of the original, inclusion-transformed against everything executed
// since. Because the undo is just another local operation, it flows through
// the compressed-clock pipeline unchanged and all replicas converge on it
// like on any edit.

// ErrNothingToUndo is returned when no undoable local operation remains.
var ErrNothingToUndo = errors.New("core: nothing to undo")

// undoRecord remembers one local operation and the inverse that undoes it in
// its generation context.
type undoRecord struct {
	inverse *op.Op
	// histLen is the history-buffer length right after the op executed:
	// everything appended later must be transformed into the inverse.
	histLen int
	dropped int // hb.Dropped() at record time
}

// undoStack is maintained by the Client when undo tracking is enabled.
type undoStack struct {
	records []undoRecord
}

// WithClientUndo enables undo tracking. It requires history compaction to be
// disabled (the undo rebase walks the history buffer).
func WithClientUndo() ClientOption {
	return func(c *Client) {
		c.undo = &undoStack{}
		c.compactEvery = 0
	}
}

// pushUndo records a just-executed local op by inv, its inverse taken from
// the document before the op ran (op.Invert reads only the deleted runs).
func (c *Client) pushUndo(inv *op.Op) {
	c.undo.records = append(c.undo.records, undoRecord{
		inverse: inv,
		histLen: c.hb.Len(),
		dropped: c.hb.Dropped(),
	})
}

// Undo generates the operation that reverses this site's most recent
// not-yet-undone local operation and applies it like any local edit,
// returning the message to propagate. The inverse is transformed against
// every operation executed after the original, so it cleanly removes the
// original's effect even after concurrent remote edits landed on top.
func (c *Client) Undo() (ClientMsg, error) {
	if c.undo == nil {
		return ClientMsg{}, fmt.Errorf("%w (enable WithClientUndo)", ErrNothingToUndo)
	}
	n := len(c.undo.records)
	if n == 0 {
		return ClientMsg{}, ErrNothingToUndo
	}
	rec := c.undo.records[n-1]
	c.undo.records = c.undo.records[:n-1]

	if rec.dropped != c.hb.Dropped() {
		return ClientMsg{}, fmt.Errorf("core: undo: history was compacted under us")
	}
	inv := rec.inverse
	var err error
	for _, e := range c.hb.Entries()[rec.histLen:] {
		if inv, err = op.TransformOnly(inv, e.Op); err != nil {
			return ClientMsg{}, fmt.Errorf("core: undo rebase: %w", err)
		}
	}
	// Generate() will push an undo record for the undo itself, making it
	// redoable by a further Undo — the usual toggle semantics.
	return c.Generate(inv)
}

// UndoDepth reports how many operations are currently undoable.
func (c *Client) UndoDepth() int {
	if c.undo == nil {
		return 0
	}
	return len(c.undo.records)
}
