package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/op"
)

// fuzzWorld is one self-contained star session (notifier + clients + FIFO
// queues) driven by FuzzIntegrateEquivalence. Two worlds run the identical
// schedule, differing only in composeDepth.
type fuzzWorld struct {
	srv      *Server
	clients  map[int]*Client
	toServer map[int][]ClientMsg
	toClient map[int][]ServerMsg
}

func newFuzzWorld(t *testing.T, n int, composeDepth, compactEvery int) *fuzzWorld {
	w := &fuzzWorld{
		srv: NewServer("seed", WithServerComposeDepth(composeDepth),
			WithServerCompaction(compactEvery)),
		clients:  make(map[int]*Client),
		toServer: make(map[int][]ClientMsg),
		toClient: make(map[int][]ServerMsg),
	}
	for site := 1; site <= n; site++ {
		snap, err := w.srv.Join(site)
		if err != nil {
			t.Fatal(err)
		}
		w.clients[site] = NewClient(site, snap.Text,
			WithClientComposeDepth(composeDepth), WithClientCompaction(compactEvery))
	}
	return w
}

// FuzzIntegrateEquivalence is the differential gate on the composed-suffix
// transform cache (DESIGN.md §13): a byte-driven op schedule is executed in
// two worlds — composeDepth 1 forces the boundary+composed-cache fast path
// onto every multi-entry walk, composeDepth 0 is the naive per-entry
// pairwise scan — and every observable must stay byte-identical: generated
// and broadcast timestamps, executed operations, concurrency verdicts
// (formula 5/7 counts), per-replica documents after every single event, and
// the fully-drained converged text.
func FuzzIntegrateEquivalence(f *testing.F) {
	// Seeds: quiet session, generate-heavy burst, lagged-site catch-up
	// (generate many at one site before any delivery), mixed interleavings,
	// delete-dense traffic that exercises the ComposedTransformSafe
	// fallback, and two writers racing beside a silent third site, whose
	// bridges go derived → materialised → derived while its own never leaves
	// the history buffer — and the same with the third site acknowledging
	// what it has read at the end of every round.
	f.Add([]byte{2})
	f.Add([]byte{3, 0x00, 0x10, 0x04, 0x21, 0x01, 0x00, 0x02, 0x00})
	f.Add([]byte{2, 0x00, 0x05, 0x00, 0x45, 0x00, 0x85, 0x00, 0xc5, 0x01, 0x00, 0x01, 0x00, 0x02, 0x00, 0x02, 0x00})
	f.Add(bytes.Repeat([]byte{0x00, 0x97, 0x04, 0xd3, 0x01, 0x00, 0x02, 0x01, 0x06, 0x44}, 12))
	f.Add(bytes.Repeat([]byte{0x00, 0xff, 0x04, 0xfe, 0x08, 0xfd, 0x01, 0x00, 0x05, 0x00, 0x02, 0x00, 0x06, 0x00}, 8))
	f.Add(silentThirdSite)
	f.Add(append([]byte{2}, silentThirdSite[1:]...)) // the same beside two silent sites
	f.Add(ackingThirdSite)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			t.Skip()
		}
		n := 2 + int(data[0])%3 // 2–4 clients
		// Compaction runs eagerly so the schedule also exercises dropped
		// prefixes under both paths.
		fast := newFuzzWorld(t, n, 1, 2)
		naive := newFuzzWorld(t, n, 0, 2)

		step := 0
		for i := 1; i+1 < len(data); i += 2 {
			code, arg := data[i], data[i+1]
			site := 1 + int(code>>2)%n
			step++
			switch code % 4 {
			case 0: // generate one local op at site
				mf, ok := fuzzGenerate(t, fast, site, arg, step)
				mn, ok2 := fuzzGenerate(t, naive, site, arg, step)
				if ok != ok2 {
					t.Fatalf("step %d: generate diverged: fast=%v naive=%v", step, ok, ok2)
				}
				if ok && mf.TS != mn.TS {
					t.Fatalf("step %d: generated timestamps diverge: %v vs %v", step, mf.TS, mn.TS)
				}
			case 1: // deliver one queued client op to the notifier
				fuzzDeliverServer(t, fast, naive, site, step)
			case 2: // deliver one queued broadcast to the client
				fuzzDeliverClient(t, fast, naive, site, step)
			default: // the site reports how far it has read
				fuzzAck(t, fast, naive, site, step)
			}
			fuzzCompareWorlds(t, fast, naive, step)
		}
		// Drain both worlds to quiescence and require full convergence.
		fuzzDrain(t, fast, naive)
		want := fast.srv.Text()
		if naive.srv.Text() != want {
			t.Fatalf("final server texts diverge: fast %q, naive %q", want, naive.srv.Text())
		}
		for site, c := range fast.clients {
			if c.Text() != want {
				t.Fatalf("fast world did not converge: site %d %q, server %q", site, c.Text(), want)
			}
			if nc := naive.clients[site].Text(); nc != want {
				t.Fatalf("naive world did not converge: site %d %q, server %q", site, nc, want)
			}
		}
		if err := fast.srv.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// silentThirdSite is a three-site schedule in which sites 1 and 2 generate
// concurrently and drain, round after round, while site 3 only ever reads:
// each writer's bridge is materialised by its racing operation and returns
// to the derived form when its next one acknowledges everything.
var silentThirdSite = append([]byte{1}, bytes.Repeat([]byte{
	0x00, 0x13, 0x04, 0x2e, // sites 1 and 2 generate concurrently
	0x01, 0x00, 0x05, 0x00, // the notifier takes both: site 2's races site 1's
	0x00, 0xa7, 0x01, 0x00, // site 1 again, still unaware of site 2's
	0x02, 0x00, 0x06, 0x00, 0x06, 0x00, 0x0a, 0x00, // broadcasts drain, site 3 lags
	0x04, 0x41, 0x05, 0x00, // site 2 has seen everything: its bridge empties
	0x02, 0x00, 0x00, 0x5c, 0x01, 0x00, // and so has site 1
	0x06, 0x00, 0x06, 0x00, 0x0a, 0x00, 0x0a, 0x00,
}, 6)...)

// ackingThirdSite is silentThirdSite with site 3 sending a bare
// acknowledgement at the end of every round: its bridge stays derived and now
// drains, so compaction is no longer held at the first operation it was sent.
var ackingThirdSite = func() []byte {
	round := (len(silentThirdSite) - 1) / 6
	out := []byte{silentThirdSite[0]}
	for i := 0; i < 6; i++ {
		out = append(out, silentThirdSite[1+i*round:1+(i+1)*round]...)
		out = append(out, 0x0b, 0x00) // site 3 acknowledges
	}
	return out
}()

// fuzzAck delivers a bare acknowledgement of everything site has integrated
// to both notifiers — unless something of the site's is still queued upstream,
// which an acknowledgement sent now would overtake. Code 3 used to be a second
// "deliver to the client"; it stays a valid schedule byte.
func fuzzAck(t *testing.T, fast, naive *fuzzWorld, site, step int) {
	if len(fast.toServer[site]) > 0 {
		return
	}
	t1 := fast.clients[site].SV().FromServer
	if n := naive.clients[site].SV().FromServer; n != t1 {
		t.Fatalf("step %d: site %d has integrated %d broadcasts in the fast world, %d in the naive", step, site, t1, n)
	}
	for _, w := range []*fuzzWorld{fast, naive} {
		if err := w.srv.Ack(site, t1); err != nil {
			t.Fatalf("step %d: ack %d from site %d: %v", step, t1, site, err)
		}
		if err := w.srv.CheckInvariants(); err != nil {
			t.Fatalf("step %d: after ack from site %d: %v", step, site, err)
		}
	}
}

// fuzzGenerate builds one deterministic local operation from arg and queues
// it toward the server; both worlds derive the identical op because their
// documents are identical up to this step.
func fuzzGenerate(t *testing.T, w *fuzzWorld, site int, arg byte, step int) (ClientMsg, bool) {
	c := w.clients[site]
	dl := c.DocLen()
	var o *op.Op
	var err error
	if arg < 160 || dl == 0 {
		pos := 0
		if dl > 0 {
			pos = int(arg) % (dl + 1)
		}
		text := string(rune('a' + int(arg)%26))
		if arg%5 == 0 {
			text += string(rune('A' + int(arg)%26))
		}
		o, err = op.NewInsert(dl, pos, text)
	} else {
		pos := int(arg) % dl
		count := 1 + int(arg)%min(3, dl-pos)
		o, err = op.NewDelete(dl, pos, count)
	}
	if err != nil {
		t.Fatalf("step %d: build op: %v", step, err)
	}
	m, err := c.Generate(o)
	if err != nil {
		t.Fatalf("step %d: generate at %d: %v", step, site, err)
	}
	w.toServer[site] = append(w.toServer[site], m)
	return m, true
}

// fuzzDeliverServer pops one upstream message in each world and compares the
// integration verdicts and resulting broadcasts field by field.
func fuzzDeliverServer(t *testing.T, fast, naive *fuzzWorld, site, step int) {
	qf, qn := fast.toServer[site], naive.toServer[site]
	if len(qf) != len(qn) {
		t.Fatalf("step %d: upstream queue depth diverged at %d: %d vs %d", step, site, len(qf), len(qn))
	}
	if len(qf) == 0 {
		return
	}
	mf, mn := qf[0], qn[0]
	fast.toServer[site], naive.toServer[site] = qf[1:], qn[1:]
	bf, rf, err := fast.srv.Receive(mf)
	if err != nil {
		t.Fatalf("step %d: fast receive: %v", step, err)
	}
	bn, rn, err := naive.srv.Receive(mn)
	if err != nil {
		t.Fatalf("step %d: naive receive: %v", step, err)
	}
	if rf.ConcurrentCount != rn.ConcurrentCount || rf.CheckCount != rn.CheckCount {
		t.Fatalf("step %d: formula-(7) verdicts diverge: fast %d/%d, naive %d/%d",
			step, rf.ConcurrentCount, rf.CheckCount, rn.ConcurrentCount, rn.CheckCount)
	}
	if len(bf) != len(bn) {
		t.Fatalf("step %d: broadcast fan-out diverged: %d vs %d", step, len(bf), len(bn))
	}
	for i := range bf {
		if bf[i].To != bn[i].To || bf[i].TS != bn[i].TS || bf[i].Ref != bn[i].Ref {
			t.Fatalf("step %d: broadcast %d diverged: %+v vs %+v", step, i, bf[i], bn[i])
		}
		if !bf[i].Op.Equal(bn[i].Op) {
			t.Fatalf("step %d: executed op diverged: %v vs %v", step, bf[i].Op, bn[i].Op)
		}
		fast.toClient[bf[i].To] = append(fast.toClient[bf[i].To], bf[i])
		naive.toClient[bn[i].To] = append(naive.toClient[bn[i].To], bn[i])
	}
	if err := fast.srv.CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
}

// fuzzDeliverClient pops one downstream broadcast in each world and compares
// the formula-(5) verdicts.
func fuzzDeliverClient(t *testing.T, fast, naive *fuzzWorld, site, step int) {
	qf, qn := fast.toClient[site], naive.toClient[site]
	if len(qf) != len(qn) {
		t.Fatalf("step %d: downstream queue depth diverged at %d: %d vs %d", step, site, len(qf), len(qn))
	}
	if len(qf) == 0 {
		return
	}
	mf, mn := qf[0], qn[0]
	fast.toClient[site], naive.toClient[site] = qf[1:], qn[1:]
	rf, err := fast.clients[site].Integrate(mf)
	if err != nil {
		t.Fatalf("step %d: fast integrate at %d: %v", step, site, err)
	}
	if err := fast.clients[site].CheckInvariants(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	rn, err := naive.clients[site].Integrate(mn)
	if err != nil {
		t.Fatalf("step %d: naive integrate at %d: %v", step, site, err)
	}
	if rf.ConcurrentCount != rn.ConcurrentCount || rf.CheckCount != rn.CheckCount {
		t.Fatalf("step %d: formula-(5) verdicts diverge at %d: fast %d/%d, naive %d/%d",
			step, site, rf.ConcurrentCount, rf.CheckCount, rn.ConcurrentCount, rn.CheckCount)
	}
}

// fuzzCompareWorlds asserts every replica's document is byte-identical
// across the two worlds after an event.
func fuzzCompareWorlds(t *testing.T, fast, naive *fuzzWorld, step int) {
	if f, n := fast.srv.Text(), naive.srv.Text(); f != n {
		t.Fatalf("step %d: server texts diverge:\nfast  %q\nnaive %q", step, f, n)
	}
	for site, c := range fast.clients {
		if f, n := c.Text(), naive.clients[site].Text(); f != n {
			t.Fatalf("step %d: site %d texts diverge:\nfast  %q\nnaive %q", step, site, f, n)
		}
	}
}

// fuzzDrain delivers every queued message in both worlds, upstream first,
// until quiescent, comparing after each event.
func fuzzDrain(t *testing.T, fast, naive *fuzzWorld) {
	for pass := 0; ; pass++ {
		moved := false
		for site := range fast.clients {
			for len(fast.toServer[site]) > 0 {
				fuzzDeliverServer(t, fast, naive, site, -pass)
				moved = true
			}
		}
		for site := range fast.clients {
			for len(fast.toClient[site]) > 0 {
				fuzzDeliverClient(t, fast, naive, site, -pass)
				moved = true
			}
		}
		if !moved {
			return
		}
		fuzzCompareWorlds(t, fast, naive, -pass)
		if pass > 10000 {
			t.Fatal("drain did not quiesce")
		}
	}
}

// TestIntegrateEquivalenceSeeds replays the fuzz seeds as a plain test so
// `go test` exercises the differential harness without -fuzz. The deep
// deterministic schedule drives a genuinely lagged site through the cache.
func TestIntegrateEquivalenceSeeds(t *testing.T) {
	// One site generates a long burst while another delivers around it:
	// deep pending lists and bridges on both sides of the star.
	var lagged []byte
	lagged = append(lagged, 2)
	for i := 0; i < 40; i++ {
		lagged = append(lagged, 0x00, byte(i*7)) // site 1 generates
	}
	for i := 0; i < 20; i++ {
		lagged = append(lagged, 0x04, byte(i*11)) // site 2 generates
	}
	for i := 0; i < 80; i++ {
		lagged = append(lagged, 0x01, 0x00, 0x02, 0x00, 0x06, 0x00) // deliveries
	}
	schedules := [][]byte{
		lagged,
		bytes.Repeat([]byte{0x00, 0x9b, 0x04, 0xa1, 0x01, 0x00, 0x02, 0x00, 0x06, 0x00}, 30),
		silentThirdSite,
		ackingThirdSite,
	}
	var pinned [2]int // history entries the third site holds when the schedule ends, silent and acking
	for i, data := range schedules {
		t.Run(fmt.Sprintf("schedule=%d", i), func(t *testing.T) {
			n := 2 + int(data[0])%3
			fast := newFuzzWorld(t, n, 1, 2)
			naive := newFuzzWorld(t, n, 0, 2)
			// Per site, how often the fast world's notifier materialised
			// the bridge and how often it dropped it again.
			materialised, dropped, was := map[int]int{}, map[int]int{}, map[int]bool{}
			for j, step := 1, 0; j+1 < len(data); j += 2 {
				for site, st := range fast.srv.clients {
					now := len(st.bridge) > 0
					switch {
					case now && !was[site]:
						materialised[site]++
					case was[site] && !now:
						dropped[site]++
					}
					was[site] = now
				}
				code, arg := data[j], data[j+1]
				site := 1 + int(code>>2)%n
				step++
				switch code % 4 {
				case 0:
					fuzzGenerate(t, fast, site, arg, step)
					fuzzGenerate(t, naive, site, arg, step)
				case 1:
					fuzzDeliverServer(t, fast, naive, site, step)
				case 2:
					fuzzDeliverClient(t, fast, naive, site, step)
				default:
					fuzzAck(t, fast, naive, site, step)
				}
				fuzzCompareWorlds(t, fast, naive, step)
			}
			if i >= 2 {
				pinned[i-2] = fast.srv.BridgeLen(3)
			}
			fuzzDrain(t, fast, naive)
			fuzzCompareWorlds(t, fast, naive, -1)
			if i >= 2 {
				for _, site := range []int{1, 2} {
					if materialised[site] < 6 || dropped[site] < 6 {
						t.Errorf("writer %d: bridge materialised %d times and dropped %d, want 6 rounds of each",
							site, materialised[site], dropped[site])
					}
				}
				if materialised[3] != 0 {
					t.Errorf("silent site 3: bridge materialised %d times", materialised[3])
				}
			}
		})
	}
	if pinned[0] != 30 || pinned[1]*2 > pinned[0] {
		t.Errorf("the third site pins %d history entries silent and %d acknowledging, want all 30 and under half of them", pinned[0], pinned[1])
	}
}
