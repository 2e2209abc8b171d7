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
// say anything — the read-mostly audience whose acknowledgements the notifier
// never learns. Compaction runs at its default cadence.
func fanoutReplay(tb testing.TB, writers, silent, inflight, ops int) *Server {
	tb.Helper()
	srv := NewServer("")
	clients := make([]*Client, writers)
	for site := 1; site <= writers+silent; site++ {
		snap, err := srv.Join(site)
		if err != nil {
			tb.Fatal(err)
		}
		if site <= writers {
			clients[site-1] = NewClient(site, snap.Text)
		}
	}
	queues := make([][]ClientMsg, writers)
	for done := 0; done < ops; {
		for w, c := range clients {
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
			for w := range clients {
				out, _, err := srv.Receive(queues[w][k])
				if err != nil {
					tb.Fatal(err)
				}
				done++
				for _, sm := range out {
					if sm.To <= writers {
						inbox = append(inbox, sm)
					}
				}
			}
		}
		for w := range queues {
			queues[w] = queues[w][:0]
		}
		for _, sm := range inbox {
			if _, err := clients[sm.To-1].Integrate(sm); err != nil {
				tb.Fatal(err)
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
// The history buffer — which the audience does pin, until acknowledgements
// exist (ROADMAP item 2) — and the operations themselves are excluded.
func TestSilentSitesHoldNoBridge(t *testing.T) {
	const writers, inflight = 4, 4
	// A writer's bridge never outgrows the other writers' outstanding edits
	// plus one round of its own lag; slice growth may double that.
	const bound = writers * 2 * (writers * inflight)

	audience := fanoutReplay(t, writers, 28, inflight, 20000)
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

	short, _ := bridgeStorage(fanoutReplay(t, writers, 28, inflight, 2000), writers)
	if short != total {
		t.Fatalf("bridge storage %d entries after 2 000 edits, %d after 20 000: it scales with run length", short, total)
	}
	alone, _ := bridgeStorage(fanoutReplay(t, writers, 0, inflight, 20000), writers)
	if diff := total - alone; diff*10 > alone || -diff*10 > alone {
		t.Fatalf("bridge storage %d entries beside 28 silent sites, %d without them: more than 10%% apart", total, alone)
	}
}

// BenchmarkServerRetainedBytes sizes what a notifier still holds after the
// fanout shape, per operation it executed, as the silent audience grows. With
// N = writers every operation is acknowledged and compacted away and only the
// document remains; any silent site pins the whole history buffer, and with
// every operation stored once the figure is then flat in N (O(HB) words plus
// an O(N) state vector) — one bridge entry per silent site added 32 bytes per
// site to it.
func BenchmarkServerRetainedBytes(b *testing.B) {
	const writers, inflight, ops = 4, 4, 40000
	for _, n := range []int{4, 32, 128} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before := ms.HeapAlloc
				srv := fanoutReplay(b, writers, n-writers, inflight, ops)
				runtime.GC()
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(ms.HeapAlloc-before)/ops, "bytes/op-retained")
				runtime.KeepAlive(srv)
			}
		})
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
