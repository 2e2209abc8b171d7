package core

import (
	"fmt"
	"runtime"
	"testing"
)

// fanoutReplay drives the benchmark's fanout shape through a bare Server:
// writers editors each keep inflight edits outstanding (they generate a
// burst, the notifier takes the bursts round-robin, then every writer reads
// its link dry), beside silent sites that are sent every broadcast and never
// edit — the read-mostly audience. With acking off the audience is the peer
// that predates bare acknowledgements: it has no replica here and the notifier
// never learns what it received. With acking on every site integrates what it
// is sent and reports its T1 when Client.TakeAck says one is due, as
// repro.Editor does; the engine's invariants are checked after every one.
// Compaction runs at its default cadence.
func fanoutReplay(tb testing.TB, writers, silent, inflight, ops int, acking bool) *Server {
	tb.Helper()
	srv := NewServer("")
	replicas := writers
	if acking {
		replicas += silent
	}
	clients := make([]*Client, replicas)
	for site := 1; site <= writers+silent; site++ {
		snap, err := srv.Join(site)
		if err != nil {
			tb.Fatal(err)
		}
		if site <= replicas {
			clients[site-1] = NewClient(site, snap.Text)
		}
	}
	queues := make([][]ClientMsg, writers)
	for done := 0; done < ops; {
		for w, c := range clients[:writers] {
			for k := 0; k < inflight; k++ {
				m, err := c.Insert(c.DocLen(), "x")
				if err != nil {
					tb.Fatal(err)
				}
				queues[w] = append(queues[w], m)
			}
		}
		var inbox []ServerMsg
		for k := 0; k < inflight; k++ {
			for w := range queues {
				out, _, err := srv.Receive(queues[w][k])
				if err != nil {
					tb.Fatal(err)
				}
				done++
				for _, sm := range out {
					if sm.To <= replicas {
						inbox = append(inbox, sm)
					}
				}
			}
		}
		for w := range queues {
			queues[w] = queues[w][:0]
		}
		for _, sm := range inbox {
			c := clients[sm.To-1]
			if _, err := c.Integrate(sm); err != nil {
				tb.Fatal(err)
			}
			if t1, due := c.TakeAck(); due && acking {
				if err := srv.Ack(sm.To, t1); err != nil {
					tb.Fatal(err)
				}
				if err := srv.checkInvariants(); err != nil {
					tb.Fatalf("after ack %d from site %d: %v", t1, sm.To, err)
				}
			}
		}
	}
	return srv
}

// bridgeStorage returns the bridge entries the notifier has allocated, over
// all sites and over the silent ones (site > writers) alone.
func bridgeStorage(s *Server, writers int) (total, silent int) {
	for site, st := range s.clients {
		total += cap(st.bridge)
		if site > writers {
			silent += cap(st.bridge)
		}
	}
	return total, silent
}

// TestSilentSitesHoldNoBridge is the memory gate on the lazy bridge: what the
// notifier stores per site is bounded by the writers' in-flight depth, and
// neither the size of a silent audience nor the length of the run moves it.
// The history buffer — which an audience that never acknowledges does pin
// (TestAckedAudienceBoundsHistory is the gate on one that does) — and the
// operations themselves are excluded.
func TestSilentSitesHoldNoBridge(t *testing.T) {
	const writers, inflight = 4, 4
	// A writer's bridge never outgrows the other writers' outstanding edits
	// plus one round of its own lag; slice growth may double that.
	const bound = writers * 2 * (writers * inflight)

	audience := fanoutReplay(t, writers, 28, inflight, 20000, false)
	if err := audience.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	total, silent := bridgeStorage(audience, writers)
	if silent != 0 {
		t.Fatalf("28 silent sites hold %d bridge entries, want none", silent)
	}
	if total == 0 || total > bound {
		t.Fatalf("bridge storage %d entries, want within (0, %d]", total, bound)
	}
	for site := writers + 1; site <= writers+28; site++ {
		if got, want := audience.BridgeLen(site), 20000; got != want {
			t.Fatalf("silent site %d: logical bridge depth %d, want %d", site, got, want)
		}
	}

	short, _ := bridgeStorage(fanoutReplay(t, writers, 28, inflight, 2000, false), writers)
	if short != total {
		t.Fatalf("bridge storage %d entries after 2 000 edits, %d after 20 000: it scales with run length", short, total)
	}
	alone, _ := bridgeStorage(fanoutReplay(t, writers, 0, inflight, 20000, false), writers)
	if diff := total - alone; diff*10 > alone || -diff*10 > alone {
		t.Fatalf("bridge storage %d entries beside 28 silent sites, %d without them: more than 10%% apart", total, alone)
	}
}

// TestAckedAudienceBoundsHistory is the memory gate on bare acknowledgements:
// with every site reporting its T1 once per AckEvery integrations, what the
// notifier's history buffer holds is bounded by the compaction cadence, the
// acknowledgement interval and the writers' in-flight depth — flat in the
// length of the run and in the size of the audience. Both run lengths are
// whole numbers of compaction rounds so they stop at the same phase.
func TestAckedAudienceBoundsHistory(t *testing.T) {
	const writers, inflight = 4, 4
	const bound = 64 + AckEvery + writers*inflight
	hbLen := func(silent, ops int, acking bool) int {
		t.Helper()
		srv := fanoutReplay(t, writers, silent, inflight, ops, acking)
		if err := srv.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		return srv.History().Len()
	}
	long := hbLen(28, 20480, true)
	if long == 0 || long > bound {
		t.Fatalf("history buffer holds %d entries after 20 480 edits beside 28 acknowledging sites, want within (0, %d]", long, bound)
	}
	if short := hbLen(28, 2048, true); short != long {
		t.Fatalf("history buffer holds %d entries after 2 048 edits, %d after 20 480: it scales with run length", short, long)
	}
	if wide := hbLen(124, 2048, true); wide != long {
		t.Fatalf("history buffer holds %d entries beside 124 acknowledging sites, %d beside 28: it scales with the audience", wide, long)
	}
	// Writers acknowledge with every edit, so on their own they pin less than
	// an audience that reports once per AckEvery integrations — never more.
	if alone := hbLen(0, 2048, true); alone == 0 || alone > long {
		t.Fatalf("history buffer holds %d entries with no audience, %d beside 28 acknowledging sites", alone, long)
	}
	if pinned := hbLen(28, 2048, false); pinned != 2048 {
		t.Fatalf("history buffer holds %d entries beside 28 sites that never acknowledge, want all 2 048", pinned)
	}
}

// BenchmarkServerRetainedBytes sizes what a notifier still holds after the
// fanout shape, per operation it executed, as the silent audience grows. With
// N = writers every operation is acknowledged and compacted away and only the
// document remains; a silent site that never acknowledges pins the whole
// history buffer, and with every operation stored once the figure is then flat
// in N (O(HB) words plus an O(N) state vector) — one bridge entry per silent
// site added 32 bytes per site to it. The acked variants give the audience
// replicas that report their T1 as repro.Editor does: the buffer stays at a
// few compaction rounds and the figure returns to the document's.
func BenchmarkServerRetainedBytes(b *testing.B) {
	const writers, inflight, ops = 4, 4, 40000
	for _, acking := range []bool{false, true} {
		for _, n := range []int{4, 32, 128} {
			name := fmt.Sprintf("N=%d", n)
			if acking {
				name += "/acked"
			}
			b.Run(name, func(b *testing.B) {
				var ms runtime.MemStats
				for i := 0; i < b.N; i++ {
					runtime.GC()
					runtime.ReadMemStats(&ms)
					before := ms.HeapAlloc
					srv := fanoutReplay(b, writers, n-writers, inflight, ops, acking)
					runtime.GC()
					runtime.ReadMemStats(&ms)
					b.ReportMetric(float64(ms.HeapAlloc-before)/ops, "bytes/op-retained")
					b.ReportMetric(float64(srv.History().Len()), "hb_len")
					runtime.KeepAlive(srv)
				}
			})
		}
	}
}

// TestAckReleasesAcknowledgedOps: a partial acknowledgement must not leave the
// operations it covered reachable through the bridge's backing array (a
// writer whose bridge never fully drains would pin them indefinitely), and
// the acknowledgement that empties the bridge returns it to the derived form.
func TestAckReleasesAcknowledgedOps(t *testing.T) {
	srv := NewServer("")
	var c [2]*Client
	for site := 1; site <= 2; site++ {
		snap, err := srv.Join(site)
		if err != nil {
			t.Fatal(err)
		}
		c[site-1] = NewClient(site, snap.Text)
	}
	send := func(from *Client) []ServerMsg {
		t.Helper()
		m, err := from.Insert(from.DocLen(), "x")
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := srv.Receive(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var inbox []ServerMsg
	for i := 0; i < 3; i++ {
		inbox = append(inbox, send(c[1])...)
	}
	st := srv.clients[1]
	if st.bridge != nil || srv.BridgeLen(1) != 3 {
		t.Fatalf("before site 1 speaks: bridge %v, depth %d; want derived, 3", st.bridge, srv.BridgeLen(1))
	}
	send(c[0]) // races all three: materialises
	if len(st.bridge) != 3 {
		t.Fatalf("racing operation materialised %d entries, want 3", len(st.bridge))
	}
	if _, err := c[0].Integrate(inbox[0]); err != nil {
		t.Fatal(err)
	}
	send(c[0]) // acknowledges the first
	if len(st.bridge) != 2 {
		t.Fatalf("partial acknowledgement left %d entries, want 2", len(st.bridge))
	}
	for i, b := range st.bridge[len(st.bridge):cap(st.bridge)] {
		if b != (bridgeOp{}) {
			t.Fatalf("vacated slot %d still holds %+v", i, b)
		}
	}
	for _, sm := range inbox[1:] {
		if _, err := c[0].Integrate(sm); err != nil {
			t.Fatal(err)
		}
	}
	send(c[0]) // acknowledges everything
	if st.bridge != nil || st.comp != nil || srv.BridgeLen(1) != 0 {
		t.Fatalf("drained bridge not returned to the derived form: %v, comp %v, depth %d", st.bridge, st.comp, srv.BridgeLen(1))
	}
	if err := srv.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
