package core

import (
	"sort"

	"repro/internal/causal"
	"repro/internal/op"
	"repro/internal/vclock"
)

// Origin classifies a client history-buffer entry for the y selector of
// formulas (4)–(5).
type Origin uint8

// Client history entry origins.
const (
	// OriginLocal: the entry was generated at this site (y = 2).
	OriginLocal Origin = iota
	// OriginServer: the entry was propagated from site 0 (y = 1).
	OriginServer
)

// String names the origin.
func (o Origin) String() string {
	if o == OriginLocal {
		return "local"
	}
	return "server"
}

// ClientEntry is one executed operation saved in a client's history buffer
// (paper §2.3, §3.3): the executed form, its original 2-element propagation
// timestamp, and its origin.
type ClientEntry struct {
	Op     *op.Op
	TS     Timestamp
	Origin Origin
	// Ref is the operation's causal identity, used by the validation
	// harness to compare clock verdicts against the ground-truth oracle.
	Ref causal.OpRef
}

// ClientHB is the history buffer of a client site.
//
// Besides the entries it keeps a boundary index: the positions and keys of
// the two origin subsequences. In any real execution the keys are strictly
// increasing — local entries carry TS.T2 = SV_i[2] which §3.2 rule 3
// increments per generation, server entries carry TS.T1 = SV_i[1] which
// rule 2 increments per integration — so formula (5) is a monotone
// predicate on each subsequence and the concurrent entries form two
// suffixes locatable by binary search (ConcurrentCount, Boundary).
type ClientHB struct {
	entries []ClientEntry
	dropped int

	localPos  []int    // live indices of OriginLocal entries, ascending
	localKey  []uint64 // their TS.T2 values, parallel to localPos
	serverPos []int    // live indices of OriginServer entries, ascending
	serverKey []uint64 // their TS.T1 values, parallel to serverPos

	// unordered is set when a synthetic buffer (tests, replay tooling)
	// appended keys out of order; the binary-search fast paths then fall
	// back to the linear scan so verdicts never depend on the invariant.
	unordered bool
}

// Add appends an executed operation.
func (h *ClientHB) Add(e ClientEntry) {
	h.index(len(h.entries), e)
	h.entries = append(h.entries, e)
}

// index records entry e (about to live at index i) in the boundary index.
func (h *ClientHB) index(i int, e ClientEntry) {
	if e.Origin == OriginLocal {
		if n := len(h.localKey); n > 0 && e.TS.T2 <= h.localKey[n-1] {
			h.unordered = true
		}
		h.localPos = append(h.localPos, i)
		h.localKey = append(h.localKey, e.TS.T2)
		return
	}
	if n := len(h.serverKey); n > 0 && e.TS.T1 <= h.serverKey[n-1] {
		h.unordered = true
	}
	h.serverPos = append(h.serverPos, i)
	h.serverKey = append(h.serverKey, e.TS.T1)
}

// Len returns the number of buffered operations.
func (h *ClientHB) Len() int { return len(h.entries) }

// Dropped returns how many entries garbage collection has removed.
func (h *ClientHB) Dropped() int { return h.dropped }

// Entries returns the live entries, oldest first. The slice is owned by the
// buffer.
func (h *ClientHB) Entries() []ClientEntry { return h.entries }

// ConcurrentWith runs the simplified client check (formula 5) of a newly
// arrived operation's timestamp against every buffered entry and returns the
// concurrent ones, oldest first. This is the linear reference walk; the
// engines use ConcurrentCount, which the differential tests hold to the same
// verdicts.
func (h *ClientHB) ConcurrentWith(ta Timestamp) []ClientEntry {
	var out []ClientEntry
	for _, e := range h.entries {
		if ConcurrentClient(ta, e.TS, e.Origin == OriginServer) {
			out = append(out, e)
		}
	}
	return out
}

// ConcurrentCount returns how many buffered entries are concurrent with an
// arrival timestamped ta under formula (5), in O(log HB): within each origin
// subsequence the compared key is strictly increasing, so the concurrent
// entries are a suffix found by binary search.
func (h *ClientHB) ConcurrentCount(ta Timestamp) int {
	if h.unordered {
		n := 0
		for _, e := range h.entries {
			if ConcurrentClient(ta, e.TS, e.Origin == OriginServer) {
				n++
			}
		}
		return n
	}
	nl := len(h.localKey) - sort.Search(len(h.localKey), func(i int) bool { return h.localKey[i] > ta.T2 })
	ns := len(h.serverKey) - sort.Search(len(h.serverKey), func(i int) bool { return h.serverKey[i] > ta.T1 })
	return nl + ns
}

// Boundary returns the smallest live index i such that every buffered entry
// concurrent with ta sits at index >= i — Len() when nothing is concurrent.
// The two origin subsequences contribute one suffix head each; the boundary
// is the earlier of the two. Entries at or after the boundary are not
// necessarily all concurrent: causally-preceding entries of the other origin
// may interleave with the concurrent suffix.
func (h *ClientHB) Boundary(ta Timestamp) int {
	if h.unordered {
		for i, e := range h.entries {
			if ConcurrentClient(ta, e.TS, e.Origin == OriginServer) {
				return i
			}
		}
		return len(h.entries)
	}
	b := len(h.entries)
	if k := sort.Search(len(h.localKey), func(i int) bool { return h.localKey[i] > ta.T2 }); k < len(h.localPos) && h.localPos[k] < b {
		b = h.localPos[k]
	}
	if k := sort.Search(len(h.serverKey), func(i int) bool { return h.serverKey[i] > ta.T1 }); k < len(h.serverPos) && h.serverPos[k] < b {
		b = h.serverPos[k]
	}
	return b
}

// Compact garbage-collects entries that can never again be concurrent with a
// future arrival. T2 of server messages (operations of ours the server has
// incorporated) is monotone, so:
//
//   - server-origin entries are causally before every future arrival (the
//     notifier serializes) and can go immediately;
//   - local entries with TS.T2 <= ackedLocal are covered by the server's
//     knowledge and can go.
//
// It returns the number of entries removed.
func (h *ClientHB) Compact(ackedLocal uint64) int {
	kept := h.entries[:0]
	for _, e := range h.entries {
		if e.Origin == OriginLocal && e.TS.T2 > ackedLocal {
			kept = append(kept, e)
		}
	}
	n := len(h.entries) - len(kept)
	// Zero the vacated tail so dropped *op.Op values are not pinned against
	// the GC by the reused backing array.
	for i := len(kept); i < len(h.entries); i++ {
		h.entries[i] = ClientEntry{}
	}
	h.entries = kept
	h.dropped += n
	// Survivors moved to new indices: rebuild the boundary index (and
	// re-derive orderedness — a previously poisoned synthetic buffer may
	// have compacted back to a monotone one).
	h.localPos, h.localKey = h.localPos[:0], h.localKey[:0]
	h.serverPos, h.serverKey = h.serverPos[:0], h.serverKey[:0]
	h.unordered = false
	for i, e := range h.entries {
		h.index(i, e)
	}
	return n
}

// ServerEntry is one executed operation saved in the notifier's history
// buffer, tagged with the site that originally generated it (the y of
// formulas 6–7).
//
// The paper (§3.3) timestamps each buffered operation with the full
// N-element state vector. Storing that vector per entry would make the
// notifier's history O(N·HB) words; instead the buffer stores only the
// origin site per entry and reconstructs any TS value on demand from the
// single vector snapshot it keeps for the *newest* entry (see ServerHB):
// consecutive entries differ by exactly one unit increment at the origin
// site, so entry i's vector is the tail snapshot minus the increments of the
// entries after i. Total memory is O(HB) + O(N).
type ServerEntry struct {
	Op     *op.Op
	Origin int // original generator site y
	Ref    causal.OpRef
}

// ServerHB is the notifier's history buffer.
//
// Invariant (delta encoding): entry i's full state-vector timestamp is
//
//	TS_i[x] = tail[x] − (# entries j > i with Origin_j == x)
//	Σ TS_i  = tailSum − (len(entries)−1−i)
//
// where tail is the SV_0 snapshot at the newest Add. Both identities hold
// because every Add pairs with exactly one SV_0 increment at the entry's
// origin, and Compact only removes a prefix.
type ServerHB struct {
	entries []ServerEntry
	dropped int

	// tail mirrors SV_0 as of the newest entry; counts[x] is the number of
	// buffered entries with Origin == x (so tail[x]−counts[x] is TS[x] of
	// the entry *before* the oldest buffered one).
	tail    vclock.VC
	counts  vclock.VC
	tailSum uint64

	// byOrigin[x] lists the absolute indices (live index + dropped) of the
	// buffered entries with Origin == x, ascending. Boundary uses it as an
	// O(log) oracle for "operations from x among the first i entries"; it
	// always holds exactly counts[x] elements.
	byOrigin [][]int
}

// Add appends an executed operation, advancing the tail snapshot by one unit
// at e.Origin — the delta form of the paper's "timestamp with the full state
// vector" that performs no O(N) copy.
func (h *ServerHB) Add(e ServerEntry) {
	h.grow(e.Origin)
	h.tail[e.Origin]++
	h.tailSum++
	h.counts[e.Origin]++
	h.byOrigin[e.Origin] = append(h.byOrigin[e.Origin], h.dropped+len(h.entries))
	h.entries = append(h.entries, e)
}

// AddFull appends an operation whose full state-vector timestamp is known —
// used by tests and replay tooling that construct buffers standalone. ts
// must be the previous newest timestamp plus a unit increment at e.Origin
// (the only sequence a real notifier can produce).
func (h *ServerHB) AddFull(e ServerEntry, ts vclock.VC) {
	h.tail = ts.Copy()
	h.tailSum = ts.Sum()
	h.grow(e.Origin)
	h.counts[e.Origin]++
	h.byOrigin[e.Origin] = append(h.byOrigin[e.Origin], h.dropped+len(h.entries))
	h.entries = append(h.entries, e)
}

// Grow extends the tail snapshot to cover site (zero-valued), keeping
// reconstructed timestamps dimensioned like SV_0; the owning Server calls it
// on Join.
func (h *ServerHB) Grow(site int) { h.grow(site) }

func (h *ServerHB) grow(site int) {
	for len(h.tail) <= site {
		h.tail = append(h.tail, 0)
	}
	for len(h.counts) <= site {
		h.counts = append(h.counts, 0)
	}
	for len(h.byOrigin) <= site {
		h.byOrigin = append(h.byOrigin, nil)
	}
}

// Len returns the number of buffered operations.
func (h *ServerHB) Len() int { return len(h.entries) }

// Dropped returns how many entries garbage collection has removed.
func (h *ServerHB) Dropped() int { return h.dropped }

// Entries returns the live entries, oldest first. The slice is owned by the
// buffer.
func (h *ServerHB) Entries() []ServerEntry { return h.entries }

// TS reconstructs the full state-vector timestamp of entry i (an O(N + HB)
// walk back from the tail snapshot; diagnostics and tests only — the hot
// path never materializes a vector).
func (h *ServerHB) TS(i int) vclock.VC {
	out := h.tail.Copy()
	for j := len(h.entries) - 1; j > i; j-- {
		out[h.entries[j].Origin]--
	}
	return out
}

// Sum returns Σ TS of entry i in O(1) via the delta invariant.
func (h *ServerHB) Sum(i int) uint64 {
	return h.tailSum - uint64(len(h.entries)-1-i)
}

// ClockWords returns how many clock words the buffer keeps to timestamp
// every buffered entry — tail + counts + tailSum, O(N) regardless of Len(),
// versus the O(N·Len) of the paper's full-vector-per-entry storage (§3.3).
// Reported by `figures -exp e4`.
func (h *ServerHB) ClockWords() int { return len(h.tail) + len(h.counts) + 1 }

// ConcurrentCount returns how many buffered entries are concurrent (formula
// 7) with an operation newly arrived from site x (timestamp ta, join
// baseline baselineX), in O(1) from the delta invariant alone.
//
// Derivation: with n buffered entries, entry i has Σ TS_i = tailSum−(n−1−i)
// and TS_i[x] = beforeX + seenX(i), beforeX = tail[x]−counts[x]. Writing
// nonX(i) = i+1−seenX(i) (the 1-based rank of entry i among non-x entries
// when Origin_i ≠ x),
//
//	Σ TS_i − TS_i[x] = (tailSum − n − beforeX) + nonX(i) = base + nonX(i)
//
// where base = Σ_{j≠x} (tail[j]−counts[j]) ≥ 0. Formula (7) — concurrent ⟺
// Origin_i ≠ x ∧ Σ TS_i − TS_i[x] > ta.T1 + baselineX — is therefore
// monotone in the non-x rank: exactly the non-x entries with rank above
// (ta.T1 + baselineX) − base are concurrent, and counting them needs no
// scan at all.
func (h *ServerHB) ConcurrentCount(ta Timestamp, x int, baselineX uint64) int {
	n := uint64(len(h.entries))
	if n == 0 {
		return 0
	}
	var tailX, totalX uint64
	if x >= 0 && x < len(h.tail) {
		tailX = h.tail[x]
	}
	if x >= 0 && x < len(h.counts) {
		totalX = h.counts[x]
	}
	base := h.tailSum - n - (tailX - totalX)
	totalNonX := n - totalX
	rhs := ta.T1 + baselineX
	if rhs <= base {
		return int(totalNonX)
	}
	if covered := rhs - base; covered < totalNonX {
		return int(totalNonX - covered)
	}
	return 0
}

// Boundary returns the smallest live index i such that every buffered entry
// concurrent with an arrival from x (formula 7) sits at index >= i — Len()
// when nothing is concurrent. Since concurrency is monotone in an entry's
// non-x rank (see ConcurrentCount), the boundary is the position of the
// first concurrent non-x entry, located by a binary search over live
// indices with a nested search into byOrigin[x] supplying seenX — O(log²)
// total, never touching the entries. Operations from x itself may
// interleave after the boundary; they are never concurrent with x's own
// arrival.
func (h *ServerHB) Boundary(ta Timestamp, x int, baselineX uint64) int {
	n := len(h.entries)
	cc := h.ConcurrentCount(ta, x, baselineX)
	if cc == 0 {
		return n
	}
	var xs []int
	if x >= 0 && x < len(h.byOrigin) {
		xs = h.byOrigin[x]
	}
	r0 := (n - len(xs)) - cc + 1 // non-x rank of the first concurrent entry
	return sort.Search(n, func(i int) bool {
		abs := h.dropped + i
		seenX := sort.Search(len(xs), func(j int) bool { return xs[j] > abs })
		return i+1-seenX >= r0
	})
}

// Pending calls visit, oldest first, with every buffered entry whose
// broadcast index toward site x exceeds acked, together with that index —
// formula (7)'s concurrent set for an arrival from x stamped T1 = acked, which
// is exactly x's bridge (DESIGN.md §4). The walk starts at Boundary and skips
// x's own operations interleaved into the suffix; the first index comes from
// the delta invariant (Σ_{j≠x} TS_i[j] − baselineX, one search into
// byOrigin[x]) and each later pending entry is the next broadcast toward x.
// visit must treat the entry as read-only.
func (h *ServerHB) Pending(x int, acked, baselineX uint64, visit func(seq uint64, e *ServerEntry)) {
	i := h.Boundary(Timestamp{T1: acked}, x, baselineX)
	if i == len(h.entries) {
		return
	}
	var tsx uint64 // TS_i[x]: the tail count less x's operations after entry i
	if x >= 0 && x < len(h.tail) {
		tsx = h.tail[x]
	}
	if x >= 0 && x < len(h.byOrigin) {
		xs, abs := h.byOrigin[x], h.dropped+i
		tsx -= uint64(len(xs) - sort.Search(len(xs), func(j int) bool { return xs[j] > abs }))
	}
	seq := h.Sum(i) - tsx - baselineX
	for ; i < len(h.entries); i++ {
		if e := &h.entries[i]; e.Origin != x {
			visit(seq, e)
			seq++
		}
	}
}

// checkArrival runs the simplified server check (formula 7) of an operation
// newly arrived from site x (timestamp ta, join baseline baselineX) against
// the buffer and returns the number of concurrent entries. With a nil visit
// the count comes straight from the O(1) closed form (ConcurrentCount) —
// the hot path never walks the buffer. A non-nil visit (the opt-in check
// trace and decision ring) forces the linear reference walk, which doubles
// as the naive oracle the differential tests compare the closed form
// against; the scan itself allocates nothing.
//
// TS[x] and Σ TS per entry come from the delta invariant: a single forward
// pass keeps a running count of buffered operations from x, so each check
// stays O(1) as in the cached-sum formulation of ConcurrentServerSum.
func (h *ServerHB) checkArrival(ta Timestamp, x int, baselineX uint64, visit func(i int, e *ServerEntry, conc bool)) int {
	if visit == nil {
		return h.ConcurrentCount(ta, x, baselineX)
	}
	n := len(h.entries)
	if n == 0 {
		return 0
	}
	var tailX, totalX uint64
	if x < len(h.tail) {
		tailX = h.tail[x]
	}
	if x < len(h.counts) {
		totalX = h.counts[x]
	}
	// beforeX is TS[x] of the entry preceding the oldest buffered one;
	// adding the running seenX count yields TS_i[x] for every i.
	beforeX := tailX - totalX
	seenX := uint64(0)
	sum := h.tailSum - uint64(n-1)
	concurrent := 0
	for i := range h.entries {
		e := &h.entries[i]
		if e.Origin == x {
			seenX++
		}
		conc := ConcurrentServerSum(ta, x, sum, beforeX+seenX, e.Origin, baselineX)
		if conc {
			concurrent++
		}
		if visit != nil {
			visit(i, e, conc)
		}
		sum++
	}
	return concurrent
}

// ConcurrentWith runs formula (7) of an operation newly arrived from site x
// against every buffered entry and returns the concurrent ones, oldest
// first.
func (h *ServerHB) ConcurrentWith(ta Timestamp, x int, baselineX uint64) []ServerEntry {
	var out []ServerEntry
	h.checkArrival(ta, x, baselineX, func(i int, e *ServerEntry, conc bool) {
		if conc {
			out = append(out, *e)
		}
	})
	return out
}

// Compact garbage-collects entries no future arrival can be concurrent
// with. An entry from origin y is needed while some *other* site x has
// acknowledged fewer broadcasts than the entry's broadcast index toward x
// (Σ_{j≠x} TS[j] − baseline_x) — while it is still in x's bridge. live lists
// the joined sites (the notifier's join cache); each contributes the highest
// T1 it has sent and its join baseline. It returns the number of entries
// removed. Only a prefix is collected — the HB stays a suffix of the
// execution order.
func (h *ServerHB) Compact(live []destRef) int {
	n := len(h.entries)
	if n == 0 || len(live) == 0 {
		return 0
	}
	// Precompute per-site retention state once: the threshold below which a
	// broadcast index is already covered (baseline + acked, since
	// se > b && se−b > a  ⟺  se > b+a for unsigned a), and the site's
	// TS[x] before the oldest entry.
	type retention struct {
		site int
		thr  uint64 // baseline + acked broadcasts
		tsx  uint64 // running TS_i[site], advanced as entries pass
	}
	sites := make([]retention, 0, len(live))
	for _, d := range live {
		x := d.site
		var tailX, totalX uint64
		if x >= 0 && x < len(h.tail) {
			tailX = h.tail[x]
		}
		if x >= 0 && x < len(h.counts) {
			totalX = h.counts[x]
		}
		sites = append(sites, retention{site: x, thr: d.st.baseline + d.st.acked, tsx: tailX - totalX})
	}
	sum := h.tailSum - uint64(n-1)
	cut := 0
scan:
	for i := range h.entries {
		e := &h.entries[i]
		for k := range sites {
			s := &sites[k]
			if s.site == e.Origin {
				s.tsx++ // this entry is an op from s.site: TS[site] advances
				continue
			}
			// se = Σ_{j≠x} TS_i[j]; the entry is still needed by x when its
			// broadcast index toward x exceeds what x has acknowledged.
			if se := sum - s.tsx; se > s.thr {
				break scan
			}
		}
		cut++
		sum++
	}
	if cut == 0 {
		return 0
	}
	for i := 0; i < cut; i++ {
		h.counts[h.entries[i].Origin]--
	}
	// Drop the cut prefix from the per-origin index. Absolute indices are
	// stable across compaction, so only the leading elements below the new
	// dropped offset go; copying down (rather than re-slicing) keeps the
	// backing arrays from accreting a dead prefix over a long session.
	newDropped := h.dropped + cut
	for x := range h.byOrigin {
		lst := h.byOrigin[x]
		k := sort.Search(len(lst), func(i int) bool { return lst[i] >= newDropped })
		if k > 0 {
			h.byOrigin[x] = lst[:copy(lst, lst[k:])]
		}
	}
	kept := copy(h.entries, h.entries[cut:])
	// Zero the vacated tail so dropped *op.Op values are not pinned against
	// the GC by the reused backing array.
	for i := kept; i < len(h.entries); i++ {
		h.entries[i] = ServerEntry{}
	}
	h.entries = h.entries[:kept]
	h.dropped += cut
	return cut
}
