package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/server"
	"repro/internal/transport"
)

// TestLiveSnapshotRendering is the end-to-end check of the observability
// path: a multi-session server on loopback TCP with real editors, the debug
// endpoint served over HTTP, cvcstat's fetch+render against it, and the
// decision trace dumped as JSONL.
func TestLiveSnapshotRendering(t *testing.T) {
	reg := obs.NewRegistry("reducesrv")
	ring := obs.NewDecisionRing(256)
	ring.SetEnabled(true)

	ln, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	mgr := server.NewManager(
		server.WithInitialText("base"),
		server.WithObservability(reg),
		server.WithDecisionRing(ring),
	)
	svc := server.Serve(ln, mgr)
	defer mgr.Close()
	defer svc.Close()

	debug := httptest.NewServer(server.DebugHandler(reg, ring))
	defer debug.Close()

	join := func(session string) *repro.Editor {
		t.Helper()
		conn, err := transport.DialTCP(ln.Addr())
		if err != nil {
			t.Fatal(err)
		}
		ed, err := repro.ConnectSession(conn, session, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ed
	}
	e1, e2 := join("docs/a"), join("docs/a")
	defer e1.Close()
	defer e2.Close()
	if err := e1.Insert(4, " one"); err != nil {
		t.Fatal(err)
	}
	waitText(t, e2, "base one")
	if err := e2.Insert(8, " two"); err != nil {
		t.Fatal(err)
	}
	waitText(t, e1, "base one two")

	snap, err := fetch(debug.URL + "/metricz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	sess, ok := snap.Child("docs/a")
	if !ok {
		t.Fatalf("snapshot has no docs/a child: %+v", snap)
	}
	if sess.Gauges[obs.GSites] != 2 {
		t.Errorf("sites gauge = %d, want 2", sess.Gauges[obs.GSites])
	}
	if sess.Gauges[obs.GOpsRecv] != 2 || sess.Counters["ops.integrated"] != 2 {
		t.Errorf("ops: gauge=%d counter=%d, want 2/2",
			sess.Gauges[obs.GOpsRecv], sess.Counters["ops.integrated"])
	}
	if sess.Gauges[obs.GClockWords] < 3 {
		t.Errorf("clock_words gauge = %d, want >= 3", sess.Gauges[obs.GClockWords])
	}
	if h := sess.Hists[obs.HReceiveNs]; h.Count != 2 || h.Max == 0 {
		t.Errorf("receive.ns = %+v, want 2 nonzero observations", h)
	}
	if snap.Counters["wire.frames.server_op"] == 0 {
		t.Errorf("wire.frames.server_op = 0; frame counting is not wired")
	}
	if snap.Counters["sender.msgs"] == 0 || snap.Counters["tcp.flushes"] == 0 {
		t.Errorf("transport counters missing: %v", snap.Counters)
	}
	if qh, ok := snap.Hists[obs.HQueueDepth]; !ok || qh.Count == 0 {
		t.Errorf("conn.queue.depth histogram empty: %+v ok=%v", qh, ok)
	}

	// The tenth wire type has its rows although nobody has sent one yet.
	for _, k := range []string{"wire.frames.ack", "wire.bytes.ack"} {
		if _, ok := snap.Counters[k]; !ok {
			t.Errorf("root counters missing %q", k)
		}
	}

	// The composed-cache and bare-acknowledgement counters are pre-created by
	// the engine, so every session snapshot carries them even before the
	// first lookup or acknowledgement.
	for _, k := range []string{"ot.cache.hits", "ot.cache.misses", "ot.cache.composes", "acks.received", "acks.stale"} {
		if _, ok := sess.Counters[k]; !ok {
			t.Errorf("session counters missing %q: %v", k, sess.Counters)
		}
	}

	// The table cvcstat would print for this snapshot.
	var out strings.Builder
	render(&out, snap)
	text := out.String()
	for _, want := range []string{"docs/a", "session", "clock_words", "tf/op", "cache hit%", "sender.msgs", "wire.frames.server_op"} {
		if !strings.Contains(text, want) {
			t.Errorf("render output missing %q:\n%s", want, text)
		}
	}

	// The decision ring saw the server-side formula-(7) work, labeled by
	// session, and dumps as parseable JSONL.
	resp, err := http.Get(debug.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var integrates int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var d obs.Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if d.Kind == obs.DServerIntegrate {
			integrates++
			if d.Session != "docs/a" {
				t.Errorf("decision session = %q, want docs/a", d.Session)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if integrates != 2 {
		t.Errorf("trace has %d server.integrate records, want 2", integrates)
	}
}

// TestRenderCacheColumns pins the derived-column arithmetic against a
// recorded snapshot: transforms/op is transforms over integrated ops, cache
// hit% is hits over lookups, and both degrade to "-" when the denominator is
// zero rather than dividing by it.
func TestRenderCacheColumns(t *testing.T) {
	snap := obs.Snapshot{
		Name: "reducesrv",
		Children: []obs.Snapshot{
			{
				Name: "docs/warm",
				Counters: map[string]int64{
					"ops.integrated":    4,
					"ot.transforms":     6,
					"ot.cache.hits":     3,
					"ot.cache.misses":   1,
					"ot.cache.composes": 2,
				},
			},
			{
				Name:     "docs/idle",
				Counters: map[string]int64{"ops.integrated": 0},
			},
		},
	}
	var out strings.Builder
	render(&out, snap)
	text := out.String()
	warm, idle := tableLine(text, "docs/warm"), tableLine(text, "docs/idle")
	if !strings.Contains(warm, "1.50") || !strings.Contains(warm, "75%") {
		t.Errorf("warm row missing tf/op=1.50 or hit%%=75%%: %q", warm)
	}
	if !strings.Contains(idle, "-") {
		t.Errorf("idle row should render '-' for undefined ratios: %q", idle)
	}
}

// TestRenderMissingRows pins graceful degradation: a session snapshot from a
// server built without some subsystems (no gauges, no engine counters, no
// receive histogram) renders "-" cells, not fake zeros, and the row still
// has every column so nothing misaligns.
func TestRenderMissingRows(t *testing.T) {
	snap := obs.Snapshot{
		Name: "reducesrv",
		Children: []obs.Snapshot{
			{Name: "docs/bare"}, // no gauges, counters, or hists at all
			{
				Name:   "docs/full",
				Gauges: map[string]int64{obs.GSites: 2, obs.GOpsRecv: 0, obs.GDocRunes: 7, obs.GHBLen: 1, obs.GClockWords: 4},
				Counters: map[string]int64{
					"checks.total": 5, "ot.transforms": 0, "ops.integrated": 3,
				},
			},
		},
	}
	var out strings.Builder
	render(&out, snap)
	text := out.String()

	header := tableLine(text, "session")
	bare := tableLine(text, "docs/bare")
	full := tableLine(text, "docs/full")
	if bare == "" || full == "" {
		t.Fatalf("rows missing from render:\n%s", text)
	}
	// Every cell of the bare row after the name is a "-", and both rows carry
	// all 13 columns (the header's multi-word labels split differently under
	// Fields, so count against the known column count) — no misalignment.
	const cols = 13
	bareFields := strings.Fields(bare)
	if len(bareFields) != cols {
		t.Errorf("bare row has %d fields, want %d:\n%q\n%q", len(bareFields), cols, header, bare)
	}
	for _, f := range bareFields[1:] {
		if f != "-" {
			t.Errorf("bare row cell = %q, want '-': %q", f, bare)
		}
	}
	if got := len(strings.Fields(full)); got != cols {
		t.Errorf("full row has %d fields, want %d:\n%q\n%q", got, cols, header, full)
	}
	// A gauge that exists with value zero still renders as 0, not "-".
	if !strings.Contains(full, " 0 ") {
		t.Errorf("full row lost its genuine zero: %q", full)
	}
	// No tracer → no stage table.
	if strings.Contains(text, "remote_integrate") {
		t.Errorf("stage table rendered without span histograms:\n%s", text)
	}
}

// TestRenderStageTable checks the -span-sample breakdown: with stage
// histograms in the snapshot the stage table appears in pipeline order and
// includes the end-to-end total.
func TestRenderStageTable(t *testing.T) {
	reg := obs.NewRegistry("reducesrv")
	tr := span.NewTracer(reg, span.Config{SampleEvery: 1})
	tr.SetEnabled(true)
	ctx := tr.Start(1, 1)
	tr.Stamp(ctx, span.StageSendEnqueue)
	tr.FinishAt(ctx, span.StageRemoteIntegrate)

	var out strings.Builder
	render(&out, reg.Snapshot())
	text := out.String()
	for _, want := range []string{"stage", "generate", "send_enqueue", "remote_integrate", "total"} {
		if !strings.Contains(text, want) {
			t.Errorf("stage table missing %q:\n%s", want, text)
		}
	}
	// Pipeline order, not alphabetical: generate precedes decode.
	if strings.Index(text, "generate") > strings.Index(text, "\ndecode") && strings.Contains(text, "\ndecode") {
		t.Errorf("stage table not in pipeline order:\n%s", text)
	}
}

// TestRenderShardTable checks the sharded-scheduling section: with the
// per-shard wakeup counters in the snapshot, the shard table renders one row
// per registered shard plus the ready-ring depth distribution and the steal
// and fan-out totals — and the wakeup counters do NOT repeat in the generic
// process-wide counter table. A snapshot without shard counters (a server on
// a non-poller platform) renders no shard section.
func TestRenderShardTable(t *testing.T) {
	snap := obs.Snapshot{
		Name: "reducesrv",
		Counters: map[string]int64{
			obs.CPollerShard0Wakeups: 40,
			obs.CPollerShard1Wakeups: 30,
			obs.CPollerShard2Wakeups: 20,
			obs.CPollerShard3Wakeups: 10,
			obs.CDispatchSteals:      7,
			obs.CFanoutParallel:      5,
			"sender.msgs":            99,
		},
	}
	var out strings.Builder
	render(&out, snap)
	text := out.String()
	for _, want := range []string{"shard", "wakeups", "steals", "fanouts"} {
		if !strings.Contains(text, want) {
			t.Errorf("shard table missing %q:\n%s", want, text)
		}
	}
	for i, count := range []string{"40", "30", "20", "10"} {
		// Keyed by the shard column: the header's wall-clock time can
		// contain any of the counts.
		line := rowOf(text, fmt.Sprint(i))
		if !strings.Contains(line, count) {
			t.Errorf("shard %d wakeup row missing or misaligned: %q\n%s", i, line, text)
		}
	}
	if strings.Contains(text, "poller.shard.wakeups.0") {
		t.Errorf("per-shard counters duplicated in the generic counter table:\n%s", text)
	}
	// The steal/fan-out totals still appear in the generic table by name.
	if tableLine(text, obs.CDispatchSteals) == "" {
		t.Errorf("generic counter table lost %s:\n%s", obs.CDispatchSteals, text)
	}

	var bare strings.Builder
	render(&bare, obs.Snapshot{Name: "reducesrv", Counters: map[string]int64{"sender.msgs": 1}})
	if strings.Contains(bare.String(), "wakeups") {
		t.Errorf("shard section rendered without shard counters:\n%s", bare.String())
	}
}

// tableLine returns the first rendered line containing key.
func tableLine(text, key string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, key) {
			return line
		}
	}
	return ""
}

// rowOf returns the first line whose first column is key.
func rowOf(text, key string) string {
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == key {
			return line
		}
	}
	return ""
}

func waitText(t *testing.T, ed *repro.Editor, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ed.Text() != want {
		if time.Now().After(deadline) {
			t.Fatalf("editor stuck at %q, want %q (err=%v)", ed.Text(), want, ed.Err())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
