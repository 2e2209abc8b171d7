package core

import (
	"math/rand"
	"testing"

	"repro/internal/causal"
	"repro/internal/vclock"
)

func TestClientHBConcurrentWith(t *testing.T) {
	var hb ClientHB
	hb.Add(ClientEntry{TS: Timestamp{0, 1}, Origin: OriginLocal, Ref: causal.OpRef{Site: 1, Seq: 1}})
	hb.Add(ClientEntry{TS: Timestamp{1, 0}, Origin: OriginServer, Ref: causal.OpRef{Site: 0, Seq: 1}})
	hb.Add(ClientEntry{TS: Timestamp{1, 2}, Origin: OriginLocal, Ref: causal.OpRef{Site: 1, Seq: 2}})

	// Arrival with T2=1: only the local entry with T2=2 is concurrent.
	conc := hb.ConcurrentWith(Timestamp{2, 1})
	if len(conc) != 1 || conc[0].Ref != (causal.OpRef{Site: 1, Seq: 2}) {
		t.Fatalf("concurrent set: %+v", conc)
	}
}

func TestClientHBCompact(t *testing.T) {
	var hb ClientHB
	hb.Add(ClientEntry{TS: Timestamp{0, 1}, Origin: OriginLocal})
	hb.Add(ClientEntry{TS: Timestamp{1, 0}, Origin: OriginServer})
	hb.Add(ClientEntry{TS: Timestamp{1, 2}, Origin: OriginLocal})
	n := hb.Compact(1) // local seq 1 acked; server entries always go
	if n != 2 || hb.Len() != 1 || hb.Dropped() != 2 {
		t.Fatalf("compact: removed %d, len %d, dropped %d", n, hb.Len(), hb.Dropped())
	}
	if hb.Entries()[0].TS != (Timestamp{1, 2}) {
		t.Fatalf("survivor: %+v", hb.Entries()[0])
	}
}

// clientBoundaryOracle is the linear reference for ClientHB.Boundary: the
// first live index holding a concurrent entry, Len() when none is.
func clientBoundaryOracle(hb *ClientHB, ta Timestamp) int {
	for i, e := range hb.Entries() {
		if ConcurrentClient(ta, e.TS, e.Origin == OriginServer) {
			return i
		}
	}
	return hb.Len()
}

// TestClientHBBoundaryEdgeCases pins the binary-searched boundary on the
// shapes the formula-(5) fast path turns on: empty buffer, fully-causal
// prefix, fully-concurrent buffer, interleaved origins, and a boundary
// sitting exactly at a Compact-vacated prefix.
func TestClientHBBoundaryEdgeCases(t *testing.T) {
	check := func(t *testing.T, hb *ClientHB, ta Timestamp) {
		t.Helper()
		if got, want := hb.ConcurrentCount(ta), len(hb.ConcurrentWith(ta)); got != want {
			t.Fatalf("ConcurrentCount(%v) = %d, linear oracle %d", ta, got, want)
		}
		if got, want := hb.Boundary(ta), clientBoundaryOracle(hb, ta); got != want {
			t.Fatalf("Boundary(%v) = %d, linear oracle %d", ta, got, want)
		}
	}

	t.Run("empty", func(t *testing.T) {
		var hb ClientHB
		check(t, &hb, Timestamp{3, 2})
		if hb.Boundary(Timestamp{0, 0}) != 0 || hb.ConcurrentCount(Timestamp{0, 0}) != 0 {
			t.Fatal("empty buffer must report boundary 0 and count 0")
		}
	})

	// A client buffer as §3.2 builds it: local entries carry T2 = ++SV[2],
	// server entries carry T1 = ++SV[1].
	build := func() *ClientHB {
		var hb ClientHB
		hb.Add(ClientEntry{TS: Timestamp{0, 1}, Origin: OriginLocal})
		hb.Add(ClientEntry{TS: Timestamp{1, 1}, Origin: OriginServer})
		hb.Add(ClientEntry{TS: Timestamp{1, 2}, Origin: OriginLocal})
		hb.Add(ClientEntry{TS: Timestamp{2, 2}, Origin: OriginServer})
		hb.Add(ClientEntry{TS: Timestamp{2, 3}, Origin: OriginLocal})
		return &hb
	}

	t.Run("fully-causal", func(t *testing.T) {
		hb := build()
		// The arrival has seen both server broadcasts and all three locals.
		ta := Timestamp{3, 3}
		check(t, hb, ta)
		if hb.ConcurrentCount(ta) != 0 || hb.Boundary(ta) != hb.Len() {
			t.Fatalf("fully-causal: count %d boundary %d, want 0 / %d",
				hb.ConcurrentCount(ta), hb.Boundary(ta), hb.Len())
		}
	})

	t.Run("fully-concurrent", func(t *testing.T) {
		hb := build()
		// The arrival predates everything buffered.
		ta := Timestamp{0, 0}
		check(t, hb, ta)
		if hb.ConcurrentCount(ta) != hb.Len() || hb.Boundary(ta) != 0 {
			t.Fatalf("fully-concurrent: count %d boundary %d, want %d / 0",
				hb.ConcurrentCount(ta), hb.Boundary(ta), hb.Len())
		}
	})

	t.Run("interleaved", func(t *testing.T) {
		hb := build()
		// Seen one broadcast, two locals: concurrent are the server entry
		// with T1=2 (index 3) and the local with T2=3 (index 4).
		ta := Timestamp{1, 2}
		check(t, hb, ta)
		if hb.ConcurrentCount(ta) != 2 || hb.Boundary(ta) != 3 {
			t.Fatalf("interleaved: count %d boundary %d, want 2 / 3",
				hb.ConcurrentCount(ta), hb.Boundary(ta))
		}
	})

	t.Run("boundary-at-compacted-prefix", func(t *testing.T) {
		hb := build()
		// Compaction drops the server entries and the acked locals; the
		// boundary for a subsequent arrival lands exactly at live index 0,
		// right where the vacated prefix ended.
		hb.Compact(2)
		if hb.Dropped() != 4 || hb.Len() != 1 {
			t.Fatalf("compact left len %d dropped %d", hb.Len(), hb.Dropped())
		}
		ta := Timestamp{3, 2}
		check(t, hb, ta)
		if hb.ConcurrentCount(ta) != 1 || hb.Boundary(ta) != 0 {
			t.Fatalf("post-compact: count %d boundary %d, want 1 / 0",
				hb.ConcurrentCount(ta), hb.Boundary(ta))
		}
		// And once that survivor is acked too, nothing is concurrent.
		hb.Compact(3)
		check(t, hb, ta)
		if hb.ConcurrentCount(ta) != 0 || hb.Boundary(ta) != 0 {
			t.Fatalf("emptied: count %d boundary %d, want 0 / 0",
				hb.ConcurrentCount(ta), hb.Boundary(ta))
		}
	})

	t.Run("unordered-fallback", func(t *testing.T) {
		// A synthetic buffer violating the monotone-key invariant must fall
		// back to the linear walk and still agree with the oracle.
		var hb ClientHB
		hb.Add(ClientEntry{TS: Timestamp{0, 5}, Origin: OriginLocal})
		hb.Add(ClientEntry{TS: Timestamp{0, 2}, Origin: OriginLocal}) // out of order
		hb.Add(ClientEntry{TS: Timestamp{4, 0}, Origin: OriginServer})
		hb.Add(ClientEntry{TS: Timestamp{1, 0}, Origin: OriginServer}) // out of order
		for _, ta := range []Timestamp{{0, 0}, {2, 3}, {5, 6}, {1, 2}} {
			check(t, &hb, ta)
		}
		// Compacting away the poisoned prefix restores the fast path.
		hb.Compact(5)
		if hb.Len() != 0 {
			t.Fatalf("compact left %d entries", hb.Len())
		}
		hb.Add(ClientEntry{TS: Timestamp{5, 6}, Origin: OriginLocal})
		check(t, &hb, Timestamp{5, 5})
		if hb.ConcurrentCount(Timestamp{5, 5}) != 1 {
			t.Fatal("rebuilt index missed the new entry")
		}
	})
}

// TestClientHBBoundaryRandomized cross-checks the binary-searched boundary
// against the linear formula-(5) walk over randomized §3.2-shaped histories
// with interleaved compactions.
func TestClientHBBoundaryRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var hb ClientHB
		var local, fromServer, acked uint64
		for step := 0; step < 200; step++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3:
				local++
				hb.Add(ClientEntry{TS: Timestamp{fromServer, local}, Origin: OriginLocal})
			case 4, 5, 6:
				fromServer++
				if acked < local && r.Intn(2) == 0 {
					acked++
				}
				hb.Add(ClientEntry{TS: Timestamp{fromServer, acked}, Origin: OriginServer})
			case 7:
				hb.Compact(acked)
			default:
				// Probe with a plausible arrival: next broadcast, any ack.
				ta := Timestamp{fromServer + 1, uint64(r.Intn(int(local) + 1))}
				if got, want := hb.ConcurrentCount(ta), len(hb.ConcurrentWith(ta)); got != want {
					t.Fatalf("seed %d step %d: count %d, oracle %d", seed, step, got, want)
				}
				if got, want := hb.Boundary(ta), clientBoundaryOracle(&hb, ta); got != want {
					t.Fatalf("seed %d step %d: boundary %d, oracle %d", seed, step, got, want)
				}
			}
		}
	}
}

func TestServerHBConcurrentWith(t *testing.T) {
	var hb ServerHB
	hb.AddFull(ServerEntry{Origin: 2, Ref: causal.OpRef{Site: 0, Seq: 1}}, vclock.VC{0, 0, 1, 0})
	hb.AddFull(ServerEntry{Origin: 1, Ref: causal.OpRef{Site: 0, Seq: 2}}, vclock.VC{0, 1, 1, 0})

	// §5: O4 from site 3 with [1,1] is concurrent with O1' only.
	conc := hb.ConcurrentWith(Timestamp{1, 1}, 3, 0)
	if len(conc) != 1 || conc[0].Ref != (causal.OpRef{Site: 0, Seq: 2}) {
		t.Fatalf("concurrent set: %+v", conc)
	}
}

// serverBoundaryOracle is the linear reference for ServerHB.Boundary,
// resolved through ConcurrentWith and unique entry refs.
func serverBoundaryOracle(hb *ServerHB, ta Timestamp, x int, baselineX uint64) int {
	conc := hb.ConcurrentWith(ta, x, baselineX)
	if len(conc) == 0 {
		return hb.Len()
	}
	for i, e := range hb.Entries() {
		if e.Ref == conc[0].Ref {
			return i
		}
	}
	return hb.Len()
}

// TestServerHBBoundaryEdgeCases pins the closed-form formula-(7) count and
// the binary-searched boundary on the server buffer: empty, fully-causal,
// fully-concurrent, interleaved origin-x entries, a non-zero join baseline,
// and a boundary at a Compact-vacated prefix.
func TestServerHBBoundaryEdgeCases(t *testing.T) {
	check := func(t *testing.T, hb *ServerHB, ta Timestamp, x int, baselineX uint64) {
		t.Helper()
		if got, want := hb.ConcurrentCount(ta, x, baselineX), len(hb.ConcurrentWith(ta, x, baselineX)); got != want {
			t.Fatalf("ConcurrentCount(%v, x=%d, base=%d) = %d, linear oracle %d", ta, x, baselineX, got, want)
		}
		if got, want := hb.Boundary(ta, x, baselineX), serverBoundaryOracle(hb, ta, x, baselineX); got != want {
			t.Fatalf("Boundary(%v, x=%d, base=%d) = %d, linear oracle %d", ta, x, baselineX, got, want)
		}
	}

	t.Run("empty", func(t *testing.T) {
		var hb ServerHB
		check(t, &hb, Timestamp{0, 1}, 1, 0)
		if hb.Boundary(Timestamp{0, 1}, 1, 0) != 0 {
			t.Fatal("empty buffer must report boundary 0")
		}
	})

	// Five broadcasts: sites 1, 2, 1, 3, 2 in execution order, unique refs.
	build := func() *ServerHB {
		var hb ServerHB
		for i, origin := range []int{1, 2, 1, 3, 2} {
			hb.Add(ServerEntry{Origin: origin, Ref: causal.OpRef{Site: 0, Seq: uint64(i + 1)}})
		}
		return &hb
	}

	t.Run("fully-causal", func(t *testing.T) {
		hb := build()
		// Site 3 has integrated all five broadcasts: nothing is concurrent.
		ta := Timestamp{5, 2}
		check(t, hb, ta, 3, 0)
		if hb.ConcurrentCount(ta, 3, 0) != 0 || hb.Boundary(ta, 3, 0) != hb.Len() {
			t.Fatalf("fully-causal: count %d boundary %d, want 0 / %d",
				hb.ConcurrentCount(ta, 3, 0), hb.Boundary(ta, 3, 0), hb.Len())
		}
	})

	t.Run("fully-concurrent", func(t *testing.T) {
		hb := build()
		// Site 4 generated before seeing any broadcast: every entry is from
		// another site and unseen.
		ta := Timestamp{0, 1}
		check(t, hb, ta, 4, 0)
		if hb.ConcurrentCount(ta, 4, 0) != hb.Len() || hb.Boundary(ta, 4, 0) != 0 {
			t.Fatalf("fully-concurrent: count %d boundary %d, want %d / 0",
				hb.ConcurrentCount(ta, 4, 0), hb.Boundary(ta, 4, 0), hb.Len())
		}
	})

	t.Run("own-ops-interleave-after-boundary", func(t *testing.T) {
		hb := build()
		// Site 1 acked two broadcasts; its own op at index 2 sits past the
		// boundary but is never concurrent with its own arrival (x == y in
		// formula 7), so the boundary lands on index 1's entry... index 1 is
		// from site 2 with broadcast rank 2 toward site 1: rank > acked(2)?
		// Entry i's broadcast index toward 1 is its non-1 rank; entry 1 has
		// rank 1, entry 3 rank 2, entry 4 rank 3. With T1=2 the first
		// concurrent is entry 4 (rank 3 > 2), and entries 2–3 interleave
		// before it without being concurrent.
		ta := Timestamp{2, 2}
		check(t, hb, ta, 1, 0)
		if got := hb.Boundary(ta, 1, 0); got != 4 {
			t.Fatalf("boundary = %d, want 4", got)
		}
		if got := hb.ConcurrentCount(ta, 1, 0); got != 1 {
			t.Fatalf("count = %d, want 1", got)
		}
	})

	t.Run("join-baseline-shifts-boundary", func(t *testing.T) {
		hb := build()
		// A rejoiner whose snapshot covered the first two broadcasts toward
		// it (baseline 2), acking nothing since: of the three non-1 entries
		// only the last (rank 3 > 2) is concurrent.
		ta := Timestamp{0, 1}
		check(t, hb, ta, 1, 2)
		if got := hb.ConcurrentCount(ta, 1, 2); got != 1 {
			t.Fatalf("count = %d, want 1", got)
		}
		// Baseline 3 covers everything: nothing is concurrent.
		check(t, hb, ta, 1, 3)
		if got := hb.ConcurrentCount(ta, 1, 3); got != 0 {
			t.Fatalf("count = %d, want 0", got)
		}
	})

	t.Run("boundary-at-compacted-prefix", func(t *testing.T) {
		hb := build()
		// Both live sites acked the first two broadcasts toward them;
		// compaction vacates a prefix and the boundary math must keep
		// working against the dropped offset.
		acked := map[int]uint64{1: 2, 2: 2, 3: 2}
		baselines := map[int]uint64{1: 0, 2: 0, 3: 0}
		n := hb.Compact(liveDests(acked, baselines))
		if n == 0 {
			t.Fatal("compaction removed nothing")
		}
		for _, x := range []int{1, 2, 3, 4} {
			for t1 := uint64(0); t1 <= 5; t1++ {
				check(t, hb, Timestamp{t1, 1}, x, 0)
			}
		}
	})
}

// TestServerHBBoundaryRandomized cross-checks the closed-form count and the
// binary-searched boundary against the linear formula-(7) walk over random
// append/compact schedules.
func TestServerHBBoundaryRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var hb ServerHB
		const sites = 4
		acked := map[int]uint64{}
		baselines := map[int]uint64{}
		bcastToward := map[int]uint64{} // broadcasts sent toward each site
		for x := 1; x <= sites; x++ {
			acked[x], baselines[x] = 0, 0
		}
		seq := uint64(0)
		for step := 0; step < 300; step++ {
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4:
				origin := 1 + r.Intn(sites)
				seq++
				hb.Add(ServerEntry{Origin: origin, Ref: causal.OpRef{Site: 0, Seq: seq}})
				for x := 1; x <= sites; x++ {
					if x != origin {
						bcastToward[x]++
					}
				}
			case 5:
				// A random site acknowledges some prefix of its broadcasts.
				x := 1 + r.Intn(sites)
				if bcastToward[x] > acked[x] {
					acked[x] += 1 + uint64(r.Intn(int(bcastToward[x]-acked[x])))
				}
			case 6:
				hb.Compact(liveDests(acked, baselines))
			default:
				x := 1 + r.Intn(sites)
				ta := Timestamp{acked[x], 1}
				if got, want := hb.ConcurrentCount(ta, x, baselines[x]), len(hb.ConcurrentWith(ta, x, baselines[x])); got != want {
					t.Fatalf("seed %d step %d: count %d, oracle %d", seed, step, got, want)
				}
				if got, want := hb.Boundary(ta, x, baselines[x]), serverBoundaryOracle(&hb, ta, x, baselines[x]); got != want {
					t.Fatalf("seed %d step %d: boundary %d, oracle %d", seed, step, got, want)
				}
			}
		}
	}
}

func TestServerHBCompactPrefixOnly(t *testing.T) {
	var hb ServerHB
	// Three entries; site 2 has acked only the first (broadcast index 1).
	hb.AddFull(ServerEntry{Origin: 1}, vclock.VC{0, 1, 0})
	hb.AddFull(ServerEntry{Origin: 1}, vclock.VC{0, 2, 0})
	hb.AddFull(ServerEntry{Origin: 1}, vclock.VC{0, 3, 0})
	acked := map[int]uint64{1: 0, 2: 1}
	baselines := map[int]uint64{1: 0, 2: 0}
	n := hb.Compact(liveDests(acked, baselines))
	if n != 1 || hb.Len() != 2 {
		t.Fatalf("compact: removed %d, len %d", n, hb.Len())
	}
	// Nothing more to collect on a second call.
	if n := hb.Compact(liveDests(acked, baselines)); n != 0 {
		t.Fatalf("second compact removed %d", n)
	}
}

func TestServerHBCompactSkipsOriginSite(t *testing.T) {
	var hb ServerHB
	hb.AddFull(ServerEntry{Origin: 1}, vclock.VC{0, 1, 0})
	// Site 1 is the origin: its own ack is irrelevant; only site 2 matters,
	// and site 2 has seen broadcast 1.
	n := hb.Compact(liveDests(map[int]uint64{1: 0, 2: 1}, map[int]uint64{1: 0, 2: 0}))
	if n != 1 {
		t.Fatalf("entry acked by all non-origin sites must be collectable, removed %d", n)
	}
}

func TestServerHBCompactBaselineUnderflowGuard(t *testing.T) {
	var hb ServerHB
	// Entry from before site 2's join (broadcast sum 1 < baseline 5):
	// site 2 got it via its snapshot, so it never blocks collection.
	hb.AddFull(ServerEntry{Origin: 1}, vclock.VC{0, 1, 0})
	n := hb.Compact(liveDests(map[int]uint64{2: 0}, map[int]uint64{2: 5}))
	if n != 1 {
		t.Fatalf("pre-join entry must be collectable, removed %d", n)
	}
}
