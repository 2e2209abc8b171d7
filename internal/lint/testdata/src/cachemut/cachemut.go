// Fixture for the cachemut analyzer: composed-suffix cache fields may be
// mutated only from methods of the owning engine type. The type and field
// names mirror internal/core's cache layout.
package fixture

type opStub struct{ n int }

type deferredFold struct {
	op     *opStub
	maxSeq uint64
}

type clientState struct {
	bridge   []int
	comp     *opStub
	unfolded []deferredFold
	compHold bool
}

type Server struct {
	clients map[int]*clientState
}

type Client struct {
	pending   []int
	pcomp     *opStub
	punfolded []deferredFold
	pcompHold bool
}

// Mutations from the owning engine's methods are the sanctioned pattern.
func (s *Server) receive(st *clientState) {
	st.comp = &opStub{}
	st.unfolded = append(st.unfolded, deferredFold{})
	st.compHold = true
	clearFolds(&st.unfolded) // pointer handed out by the owner: legal
}

func (c *Client) integrate() {
	c.pcomp = &opStub{}
	c.punfolded = c.punfolded[:0]
	c.pcompHold = false
}

// The holder's own methods run on an owner's call stack: the lazy bridge's
// ack-prune drops the bridge prefix and the cache over it in one step.
func (st *clientState) ack(n int) {
	st.bridge = st.bridge[:copy(st.bridge, st.bridge[n:])]
	st.comp = nil
	st.compHold = false
	clearFolds(&st.unfolded)
}

// A helper mutating through a pointer it was handed does not select the
// cache fields itself and stays clean.
func clearFolds(list *[]deferredFold) {
	for i := range *list {
		(*list)[i] = deferredFold{}
	}
	*list = (*list)[:0]
}

// A free function mutating the notifier-side cache bypasses the engine's
// serialization.
func rogueInvalidate(st *clientState) {
	st.comp = nil                                    // want "composed-cache field clientState.comp assigned in a free function"
	st.unfolded = append(st.unfolded, deferredFold{}) // want "composed-cache field clientState.unfolded assigned in a free function"
	st.compHold = true                               // want "composed-cache field clientState.compHold assigned in a free function"
}

// The wrong engine's method gets no ownership credit either.
func (c *Client) rogueCrossEngine(st *clientState) {
	st.comp = nil // want "composed-cache field clientState.comp assigned in a Client method"
}

func (s *Server) rogueClientSide(c *Client) {
	c.pcomp = nil // want "composed-cache field Client.pcomp assigned in a Server method"
}

// A function literal may outlive the call or run on another goroutine: it
// gets no credit from the enclosing owner method.
func (s *Server) rogueAsync(st *clientState) {
	go func() {
		st.compHold = false // want "composed-cache field clientState.compHold assigned in a free function or literal"
	}()
}

// Handing out a pointer from a non-owner lets the mutation escape.
func rogueAlias(st *clientState) *[]deferredFold {
	return &st.unfolded // want "composed-cache field clientState.unfolded address taken in a free function"
}

// Reads are always fine, from anywhere.
func observe(st *clientState, c *Client) (bool, int) {
	return st.compHold && c.pcompHold, len(st.unfolded) + len(c.punfolded)
}

// Non-cache fields on the same types are not the analyzer's business.
func untracked(st *clientState, c *Client) {
	st.bridge = nil
	c.pending = append(c.pending, 1)
}

// Unrelated types with colliding field names are untouched.
type other struct{ comp *opStub }

func unrelated(o *other) { o.comp = nil }
