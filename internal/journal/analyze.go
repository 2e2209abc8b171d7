package journal

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/causal"
	"repro/internal/core"
)

// Analysis summarizes the causal structure of a journaled session,
// reconstructed offline from the journal alone — the trace-based style of
// causality analysis the paper's introduction attributes to [7,12]. The
// compressed timestamps in the journal are sufficient to rebuild the entire
// happens-before relation of Definition 1: an operation's T1 pins exactly
// which broadcasts its site had executed when it was generated.
type Analysis struct {
	// Records is the number of journal records replayed.
	Records int
	// Ops is the number of client operations.
	Ops int
	// Sites is the number of distinct sites that ever joined.
	Sites int
	// PerSite counts operations per site.
	PerSite map[int]int
	// OrderedPairs and ConcurrentPairs partition all op pairs.
	OrderedPairs    int
	ConcurrentPairs int
	// ConcurrencyDegree is ConcurrentPairs / totalPairs (0 when < 2 ops).
	ConcurrencyDegree float64
	// MaxDepth is the longest causal chain (in ops).
	MaxDepth int
	// FinalDoc is the reconstructed final document.
	FinalDoc string
}

// Analyze replays a journal and reconstructs the causal structure of the
// original (pre-transformation) client operations. Pairwise statistics are
// quadratic in the op count; sessions of up to a few thousand operations
// analyze instantly.
func Analyze(path, initial string) (*Analysis, error) {
	r, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close() //lint:allow errdrop: read-only analysis — every Next() is checked, close-after-read carries no information

	srv := core.NewServer(initial, core.WithServerCompaction(0))
	oracle := causal.NewOracle()
	a := &Analysis{PerSite: map[int]int{}}

	// serverOrder is the execution order at site 0 of original op refs and
	// their origin sites.
	type executed struct {
		ref    causal.OpRef
		origin int
	}
	var serverOrder []executed

	// Per-site delivery cursors: how far into serverOrder this site's
	// broadcasts have been delivered (counting only ops from other sites),
	// and the index reached.
	type cursor struct {
		joined      bool
		everJoined  bool
		idx         int // next serverOrder index to consider
		delivered   uint64
		prevDepth   int // depth of the site's previous own op
		maxDelDepth int // max depth among ops delivered to this site
	}
	cursors := map[int]*cursor{}
	depth := map[causal.OpRef]int{}

	getCursor := func(site int) *cursor {
		c, ok := cursors[site]
		if !ok {
			c = &cursor{}
			cursors[site] = c
		}
		return c
	}

	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		a.Records++
		switch rec.Kind {
		case KJoin:
			if _, err := srv.Join(rec.Site); err != nil {
				return nil, fmt.Errorf("journal: analyze join %d: %w", rec.Site, err)
			}
			c := getCursor(rec.Site)
			c.joined = true
			c.everJoined = true
			// T1 counts broadcasts since the (re)join.
			c.delivered = 0
			// The snapshot delivers everything executed so far.
			for ; c.idx < len(serverOrder); c.idx++ {
				e := serverOrder[c.idx]
				if e.origin == rec.Site {
					continue
				}
				oracle.Execute(rec.Site, e.ref)
				if d := depth[e.ref]; d > c.maxDelDepth {
					c.maxDelDepth = d
				}
			}
		case KLeave:
			if err := srv.Leave(rec.Site); err != nil {
				return nil, fmt.Errorf("journal: analyze leave %d: %w", rec.Site, err)
			}
			getCursor(rec.Site).joined = false
		case KClientOp:
			site := rec.Op.From
			c := getCursor(site)
			// Deliver the broadcasts the op's T1 says its site had
			// executed at generation time.
			for c.delivered < rec.Op.TS.T1 {
				if c.idx >= len(serverOrder) {
					return nil, fmt.Errorf("journal: analyze: site %d claims %d broadcasts, history has %d",
						site, rec.Op.TS.T1, c.delivered)
				}
				e := serverOrder[c.idx]
				c.idx++
				if e.origin == site {
					continue
				}
				c.delivered++
				oracle.Execute(site, e.ref)
				if d := depth[e.ref]; d > c.maxDelDepth {
					c.maxDelDepth = d
				}
			}
			oracle.Generate(site, rec.Op.Ref)
			d := 1 + max(c.prevDepth, c.maxDelDepth)
			depth[rec.Op.Ref] = d
			c.prevDepth = d
			if d > a.MaxDepth {
				a.MaxDepth = d
			}
			a.Ops++
			a.PerSite[site]++
			// Execute at the server (rebuilding the document as we go).
			m := core.ClientMsg{From: site, Op: rec.Op.Op, TS: rec.Op.TS, Ref: rec.Op.Ref}
			if _, _, err := srv.Receive(m); err != nil {
				return nil, fmt.Errorf("journal: analyze op: %w", err)
			}
			serverOrder = append(serverOrder, executed{ref: rec.Op.Ref, origin: site})
		}
	}

	for _, c := range cursors {
		if c.everJoined {
			a.Sites++
		}
	}
	a.FinalDoc = srv.Text()

	oracle.Seal()
	refs := make([]causal.OpRef, 0, len(depth))
	for ref := range depth {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Site != refs[j].Site {
			return refs[i].Site < refs[j].Site
		}
		return refs[i].Seq < refs[j].Seq
	})
	for i := 0; i < len(refs); i++ {
		for j := i + 1; j < len(refs); j++ {
			if oracle.Concurrent(refs[i], refs[j]) {
				a.ConcurrentPairs++
			} else {
				a.OrderedPairs++
			}
		}
	}
	if total := a.ConcurrentPairs + a.OrderedPairs; total > 0 {
		a.ConcurrencyDegree = float64(a.ConcurrentPairs) / float64(total)
	}
	return a, nil
}
