package core

import (
	"fmt"

	"repro/internal/op"
)

// Presence (telepointers): sharing each user's cursor/selection, a classic
// groupware awareness feature (GROVE's group windows). Presence reports ride
// the same FIFO links as operations, which makes the coordinate mapping
// *exact* with the same machinery that integrates operations:
//
//   - a client reports its selection in local coordinates, stamped with its
//     current 2-element state vector (no increment — presence is not an
//     operation and never enters SV or HB);
//   - the notifier walks the positions through the sender's unacknowledged
//     bridge operations, producing server-context coordinates (FIFO
//     guarantees every operation the sender had applied has arrived first);
//   - each receiving client walks the positions through its own pending
//     operations (FIFO guarantees it has integrated exactly the broadcasts
//     sent before the presence report).
//
// Between reports, receivers keep remote selections current by transforming
// them through every operation they execute.

// PresenceMsg is a client → notifier presence report.
type PresenceMsg struct {
	From   int
	TS     Timestamp // current state vector, NOT incremented
	Anchor int
	Head   int
	Active bool // false clears the sender's presence
}

// PresenceOut is a notifier → client presence relay in server-context
// coordinates.
type PresenceOut struct {
	To     int
	From   int
	Anchor int
	Head   int
	Active bool
}

// Presence builds a presence report for the client's current selection in
// local coordinates.
func (c *Client) Presence(anchor, head int, active bool) PresenceMsg {
	n := c.buf.Len()
	c.silent = 0 // the report's T1 acknowledges everything integrated so far
	return PresenceMsg{
		From:   c.site,
		TS:     c.sv.Stamp(),
		Anchor: clampIndex(anchor, n),
		Head:   clampIndex(head, n),
		Active: active,
	}
}

// MapIncomingSelection maps a relayed selection (server-context
// coordinates, received in FIFO order) into local coordinates by walking it
// through the pending local operations.
func (c *Client) MapIncomingSelection(anchor, head int) (int, int) {
	// The walk consults the individual pending entries, so any rebases the
	// composed cache deferred must be settled first. Settling leaves pcomp
	// valid: the entries then match exactly what it already composes.
	if len(c.punfolded) > 0 {
		if _, err := foldPending(c.pending, c.punfolded); err == nil {
			clearFolds(&c.punfolded)
		}
	}
	sel := op.Selection{Anchor: anchor, Head: head}
	for _, p := range c.pending {
		sel = op.TransformSelection(p.op, sel, false)
	}
	n := c.buf.Len()
	return clampIndex(sel.Anchor, n), clampIndex(sel.Head, n)
}

// RelayPresence validates and re-coordinates a presence report, returning
// one relay per other joined site. Like operations, the report's T1
// acknowledges broadcasts (FIFO makes that sound), pruning the sender's
// bridge.
func (s *Server) RelayPresence(m PresenceMsg) ([]PresenceOut, error) {
	st, err := s.acker(m.From, m.TS.T1, "presence")
	if err != nil {
		return nil, err
	}
	if m.TS.T2 != s.sv.Of(m.From) {
		return nil, fmt.Errorf("%w: site %d presence T2=%d but SV_0[%d]=%d (FIFO violated?)",
			ErrBadMessage, m.From, m.TS.T2, m.From, s.sv.Of(m.From))
	}
	// Prune by the acknowledgement, then walk into server context. A
	// materialised bridge is walked entry by entry, so any rebases the
	// composed cache deferred must be settled first (ack already did when it
	// pruned; settling leaves comp valid, as in Client.MapIncomingSelection).
	// A derived bridge is the history-buffer suffix, read in place.
	if _, err := st.ack(m.TS.T1); err != nil {
		return nil, fmt.Errorf("core: presence transform: %w", err)
	}
	if len(st.unfolded) > 0 {
		if _, err := foldBridge(st.bridge, st.unfolded); err != nil {
			return nil, fmt.Errorf("core: presence transform: %w", err)
		}
		clearFolds(&st.unfolded)
	}
	sel := op.Selection{Anchor: m.Anchor, Head: m.Head}
	if len(st.bridge) > 0 {
		for _, b := range st.bridge {
			sel = op.TransformSelection(b.op, sel, false)
		}
	} else {
		s.hb.Pending(m.From, st.acked, st.baseline, func(_ uint64, e *ServerEntry) {
			sel = op.TransformSelection(e.Op, sel, false)
		})
	}

	dests := s.destinations()
	out := make([]PresenceOut, 0, len(dests)-1)
	for _, d := range dests {
		if d.site == m.From {
			continue
		}
		out = append(out, PresenceOut{
			To: d.site, From: m.From, Anchor: sel.Anchor, Head: sel.Head, Active: m.Active,
		})
	}
	return out, nil
}

func clampIndex(x, n int) int {
	if x < 0 {
		return 0
	}
	if x > n {
		return n
	}
	return x
}
