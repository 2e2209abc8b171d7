package core

import "repro/internal/causal"

// CheckInvariants exposes the engine's internal consistency checks to tests.
func (s *Server) CheckInvariants() error { return s.checkInvariants() }

// CheckInvariants exposes the client engine's consistency checks to tests.
func (c *Client) CheckInvariants() error { return c.checkInvariants() }

// PendingSeqs exposes the bridge contents for the concurrent-set ≡
// pending-set cross-validation.
func (c *Client) PendingSeqs() []uint64 {
	out := make([]uint64, len(c.pending))
	for i, p := range c.pending {
		out[i] = p.seq
	}
	return out
}

// BridgeRefs exposes the refs of the unacknowledged broadcasts toward site,
// for the concurrent-set ≡ bridge-set cross-validation.
func (s *Server) BridgeRefs(site int) []causal.OpRef {
	var out []causal.OpRef
	for _, b := range s.bridgeOf(site) {
		out = append(out, b.ref)
	}
	return out
}

// bridgeOf returns site's pending broadcasts in whichever form the engine
// holds them: the materialised copy, or the history-buffer suffix it stands
// for.
func (s *Server) bridgeOf(site int) []bridgeOp {
	st, ok := s.clients[site]
	if !ok || !st.joined {
		return nil
	}
	if len(st.bridge) > 0 {
		return st.bridge
	}
	var out []bridgeOp
	s.hb.Pending(site, st.acked, st.baseline, func(seq uint64, e *ServerEntry) {
		out = append(out, bridgeOp{seq: seq, op: e.Op, ref: e.Ref})
	})
	return out
}

// liveDests builds the join-cache form ServerHB.Compact takes from the
// acked/baseline maps the standalone buffer tests keep.
func liveDests(acked, baselines map[int]uint64) []destRef {
	var out []destRef
	for site, a := range acked {
		out = append(out, destRef{site: site, st: &clientState{joined: true, acked: a, baseline: baselines[site]}})
	}
	return out
}
