package server_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestMetricsCatalog locks the metric names a fully wired notifier exposes to
// exactly the catalogue DESIGN.md §12 documents. A rename that forgets either
// side — code or catalogue — fails here.
func TestMetricsCatalog(t *testing.T) {
	reg := obs.NewRegistry("reducesrv")
	ring := obs.NewDecisionRing(64)

	ln := transport.NewMemListener()
	mgr := server.NewManager(
		server.WithInitialText(""),
		server.WithObservability(reg),
		server.WithDecisionRing(ring),
	)
	svc := server.Serve(ln, mgr)
	defer mgr.Close()
	defer svc.Close()
	_ = server.DebugHandler(reg, ring) // registers the process-wide counters

	conn1, _ := ln.Dial()
	e1, err := repro.ConnectSession(conn1, "doc", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Close()
	conn2, _ := ln.Dial()
	e2, err := repro.ConnectSession(conn2, "doc", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()

	// Enough operations to trip the engine's automatic compaction (every 64),
	// so the hb.* counters exist too.
	for i := 0; i < 65; i++ {
		if err := e1.Insert(0, "x"); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, []*repro.Editor{e1, e2}, strings.Repeat("x", 65))
	// e2 only reads: its 64th integration owes the notifier a bare
	// acknowledgement, which arrives on its own link some time after the text
	// converged.
	acks := func() int64 {
		child, _ := reg.Snapshot().Child("doc")
		return child.Counters[core.CAcksReceived]
	}
	eventually(t, func() bool { return acks() == 1 }, func() string {
		return fmt.Sprintf("acks.received = %d after a silent site integrated 65 operations, want 1", acks())
	})

	snap := reg.Snapshot()

	wantRoot := []string{
		obs.CSenderMsgs, obs.CSenderFlushes,
		obs.CTCPBytes, obs.CTCPFlushes,
		obs.CWireEncodes, obs.CWireOps,
		obs.CSessionRehydrations,
		obs.CPollerWakeups, obs.CPollerRearm, obs.CConnPartialReads,
		obs.CDispatchSteals, obs.CFanoutParallel,
		obs.CPollerShard0Wakeups, obs.CPollerShard1Wakeups,
		obs.CPollerShard2Wakeups, obs.CPollerShard3Wakeups,
	}
	for ty := wire.TClientOp; ty <= wire.TAck; ty++ {
		wantRoot = append(wantRoot,
			"wire.frames."+wire.TypeName(ty),
			"wire.bytes."+wire.TypeName(ty))
	}
	assertNames(t, "root counters", snap.Counters, wantRoot)
	assertNames(t, "root gauges", snap.Gauges, []string{
		obs.GQueueHighWater, obs.GGoroutines,
		obs.GHeapBytes, obs.GGCPauseNs, obs.GNumGC,
		obs.GSessionsResident, obs.GSessionsDehydrated,
	})
	assertNames(t, "root histograms", snap.Hists, []string{
		obs.HQueueDepth, obs.HPollerEventsPerWait, obs.HDispatchShardDepth,
	})

	if snap.Gauges[obs.GSessionsResident] != 1 || snap.Gauges[obs.GSessionsDehydrated] != 0 {
		t.Errorf("residency gauges = %d resident / %d dehydrated, want 1/0",
			snap.Gauges[obs.GSessionsResident], snap.Gauges[obs.GSessionsDehydrated])
	}
	if snap.Gauges[obs.GGoroutines] <= 0 {
		t.Errorf("runtime.goroutines gauge = %d, want > 0", snap.Gauges[obs.GGoroutines])
	}
	if snap.Gauges[obs.GHeapBytes] <= 0 {
		t.Errorf("runtime.heap_bytes gauge = %d, want > 0", snap.Gauges[obs.GHeapBytes])
	}

	sess, ok := snap.Child("doc")
	if !ok {
		t.Fatalf("no doc child in %+v", snap)
	}
	assertNames(t, "session counters", sess.Counters, []string{
		core.COpsIntegrated, core.CConcurrencyChecks, core.CConcurrentPairs,
		core.CTransforms, core.CCompactions, core.CCompacted,
		core.CCacheHits, core.CCacheMisses, core.CComposes,
		core.CAcksReceived, core.CAcksStale,
	})
	assertNames(t, "session gauges", sess.Gauges, []string{
		obs.GSites, obs.GOpsRecv, obs.GDocRunes, obs.GHBLen, obs.GClockWords,
		obs.GResident,
	})
	if sess.Gauges[obs.GResident] != 1 {
		t.Errorf("session resident gauge = %d, want 1", sess.Gauges[obs.GResident])
	}
	assertNames(t, "session histograms", sess.Hists, []string{obs.HReceiveNs})

	if sess.Counters[core.CCompactions] < 1 {
		t.Errorf("hb.compactions = %d, want >= 1 after 65 ops", sess.Counters[core.CCompactions])
	}
	if sess.Counters[core.COpsIntegrated] != 65 {
		t.Errorf("ops.integrated = %d, want 65", sess.Counters[core.COpsIntegrated])
	}
	if snap.Counters["wire.frames.ack"] == 0 || sess.Counters[core.CAcksStale] != 0 {
		t.Errorf("wire.frames.ack = %d, acks.stale = %d; want the one ack framed and none stale",
			snap.Counters["wire.frames.ack"], sess.Counters[core.CAcksStale])
	}
	// The mem transport still counts sender drains, but no TCP bytes flow.
	if snap.Counters[obs.CSenderMsgs] == 0 {
		t.Errorf("sender.msgs = 0 over mem transport")
	}
}

// TestSessionChildDropped checks a dropped session takes its registry child
// (and its gauges) with it.
func TestSessionChildDropped(t *testing.T) {
	reg := obs.NewRegistry("srv")
	mgr := server.NewManager(server.WithObservability(reg))
	defer mgr.Close()
	if _, err := mgr.GetOrCreate("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Snapshot().Child("a"); !ok {
		t.Fatal("child a missing after GetOrCreate")
	}
	mgr.Drop("a")
	if _, ok := reg.Snapshot().Child("a"); ok {
		t.Fatal("child a still present after Drop")
	}
}

// TestServiceString checks the status summary carries the live numbers.
func TestServiceString(t *testing.T) {
	ln := transport.NewMemListener()
	mgr := server.NewManager(server.WithInitialText("hi"))
	svc := server.Serve(ln, mgr)
	defer mgr.Close()
	defer svc.Close()

	conn, _ := ln.Dial()
	ed, err := repro.ConnectSession(conn, "s", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ed.Close()

	got := svc.String()
	for _, want := range []string{"conns=1", "sessions=1", "queue_highwater="} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
}

// assertNames fails unless m's key set is exactly want.
func assertNames[V any](t *testing.T, what string, m map[string]V, want []string) {
	t.Helper()
	got := make([]string, 0, len(m))
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	w := append([]string(nil), want...)
	sort.Strings(w)
	if fmt.Sprint(got) != fmt.Sprint(w) {
		t.Errorf("%s:\n got  %v\n want %v", what, got, w)
	}
}
