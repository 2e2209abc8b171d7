package server_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transport"
)

// journaledManager builds a manager journaling every session under dir with
// the reducesrv file layout.
func journaledManager(dir string, opts ...server.ManagerOption) *server.Manager {
	return server.NewManager(append([]server.ManagerOption{
		server.WithInitialText("base"),
		server.WithJournal(server.JournalFiles(filepath.Join(dir, "j"))),
	}, opts...)...)
}

// waitCounts blocks until the session has received everything the editors
// generated and they have integrated everything it sent them.
func waitCounts(t *testing.T, sess *server.Session, eds ...*repro.Editor) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		received, sent := sess.Counts()
		quiet := true
		for _, e := range eds {
			if err := e.Err(); err != nil {
				t.Fatalf("editor %d failed: %v", e.Site(), err)
			}
			fromServer, local := e.SV()
			if received[e.Site()] != local || sent[e.Site()] != fromServer {
				quiet = false
			}
		}
		if quiet {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %q did not quiesce", sess.Name())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCrashRestartFromJournals is the crash schedule on the unified server:
// the default document and two named ones, journaled, on the pooled and
// dispatched connection layout, with idle dehydration racing the bursts.
// The process "dies" without a single graceful leave; a second manager
// recovers every session from its journal, the old sites rejoin under their
// ids, and texts and counters continue exactly where the journals show them.
func TestCrashRestartFromJournals(t *testing.T) {
	dir := t.TempDir()
	names := []string{"", "alpha", "dir/beta"} // the last one needs escaping
	type life struct {
		mgr  *server.Manager
		svc  *server.Service
		dial func() (transport.Conn, error)
		reg  *obs.Registry
	}
	start := func() life {
		ln := transport.NewMemListener()
		reg := obs.NewRegistry("life")
		mgr := journaledManager(dir, server.WithIdleDehydrate(2*time.Millisecond), server.WithObservability(reg))
		svc := server.Serve(ln, mgr, server.WithWriterPool(-1), server.WithEventDispatch(-1))
		return life{mgr, svc, ln.Dial, reg}
	}
	connect := func(l life, name string, site int) *repro.Editor {
		t.Helper()
		conn, err := l.dial()
		if err != nil {
			t.Fatal(err)
		}
		ed, err := repro.ConnectSession(conn, name, site)
		if err != nil {
			t.Fatalf("session %q site %d: %v", name, site, err)
		}
		return ed
	}

	// First life: two editors per document, interleaved bursts with
	// park-sized gaps, and a third that only reads — through enough rounds
	// that it integrates core.AckEvery operations twice over and sends two
	// bare acknowledgements, which the journal must not notice.
	const rounds, perRound = 14, 5
	l1 := start()
	eds := map[string][2]*repro.Editor{}
	readers := map[string]*repro.Editor{}
	for _, name := range names {
		eds[name] = [2]*repro.Editor{connect(l1, name, 0), connect(l1, name, 0)}
		readers[name] = connect(l1, name, 0)
	}
	for round := 0; round < rounds; round++ {
		for _, name := range names {
			for i, ed := range eds[name] {
				for k := 0; k < perRound; k++ {
					if err := ed.Insert(0, fmt.Sprintf("%d", i)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if round%2 == 1 {
			time.Sleep(6 * time.Millisecond)
		}
	}
	type before struct {
		text     string
		sites    [2]int
		received map[int]uint64
	}
	was := map[string]before{}
	for _, name := range names {
		sess, ok := l1.mgr.Get(name)
		if !ok {
			t.Fatalf("session %q missing", name)
		}
		pair := eds[name]
		waitCounts(t, sess, pair[0], pair[1], readers[name])
		received, _ := sess.Counts()
		was[name] = before{sess.Text(), [2]int{pair[0].Site(), pair[1].Site()}, received}
		if got, want := len(sess.Text()), len("base")+2*rounds*perRound; got != want {
			t.Fatalf("session %q holds %d runes before the crash, want %d", name, got, want)
		}
	}
	// A reader's acknowledgement follows its 64th and 128th integration on its
	// own link, so the last may still be in flight; the crash waits for all six.
	acks := func() (n int64) {
		for _, child := range l1.reg.Snapshot().Children {
			n += child.Counters[core.CAcksReceived]
		}
		return n
	}
	eventually(t, func() bool { return acks() == int64(2*len(names)) }, func() string {
		return fmt.Sprintf("%d bare acknowledgements reached the notifier before the crash, want %d", acks(), 2*len(names))
	})
	// The crash: the sessions (and their journals) go first, so no
	// connection gets to record its leave — the state kill -9 leaves behind.
	_ = l1.mgr.Close()
	_ = l1.svc.Close()
	for name, pair := range eds {
		_ = pair[0].Close()
		_ = pair[1].Close()
		_ = readers[name].Close()
	}
	for _, name := range names {
		if _, _, err := journal.Replay(server.JournalFiles(filepath.Join(dir, "j"))(name), "base"); err != nil {
			t.Fatalf("journal of %q does not replay: %v", name, err)
		}
	}

	// Second life.
	l2 := start()
	defer l2.mgr.Close()
	defer l2.svc.Close()
	for _, name := range names {
		sess, err := l2.mgr.GetOrCreate(name)
		if err != nil {
			t.Fatalf("recover %q: %v", name, err)
		}
		b := was[name]
		if got := sess.Text(); got != b.text {
			t.Fatalf("session %q recovered %q, want %q", name, got, b.text)
		}
		if sites := sess.Sites(); len(sites) != 0 {
			t.Fatalf("session %q recovered with sites %v still joined", name, sites)
		}
		a := connect(l2, name, b.sites[0])
		defer a.Close()
		c := connect(l2, name, b.sites[1])
		defer c.Close()
		if a.Site() != b.sites[0] || c.Site() != b.sites[1] {
			t.Fatalf("session %q rejoined as %d,%d, want %v", name, a.Site(), c.Site(), b.sites)
		}
		if a.Text() != b.text {
			t.Fatalf("session %q rejoin snapshot %q, want %q", name, a.Text(), b.text)
		}
		// Counters resume: SV_0[site] is what the journal shows, and the
		// rejoined editor continues its own count from there.
		received, _ := sess.Counts()
		for _, ed := range []*repro.Editor{a, c} {
			if _, local := ed.SV(); received[ed.Site()] != b.received[ed.Site()] || local != b.received[ed.Site()] {
				t.Fatalf("session %q site %d resumed at SV_0=%d local=%d, journal shows %d",
					name, ed.Site(), received[ed.Site()], local, b.received[ed.Site()])
			}
		}
		if err := a.Insert(0, "(recovered) "); err != nil {
			t.Fatal(err)
		}
		waitCounts(t, sess, a, c)
		if want := "(recovered) " + b.text; c.Text() != want || sess.Text() != want {
			t.Fatalf("session %q after recovery: editor %q, notifier %q, want %q", name, c.Text(), sess.Text(), want)
		}
	}
}

// TestJournalBlindToAcks drives one journaled session through the same
// operations twice, the second time with the two silent sites acknowledging —
// on time, late, and twice — in between. An acknowledgement changes what the
// engine retains and never what it executes, so it is not a journal record:
// the two files must be byte-identical, while the acknowledged session's
// history buffer stays short and the silent one's holds the whole run.
func TestJournalBlindToAcks(t *testing.T) {
	const ops = 300
	run := func(acking bool) (journalBytes []byte, hbLen int64) {
		t.Helper()
		dir := t.TempDir()
		reg := obs.NewRegistry("journal")
		mgr := journaledManager(dir, server.WithObservability(reg))
		sess, err := mgr.GetOrCreate("")
		if err != nil {
			t.Fatal(err)
		}
		for site := 1; site <= 3; site++ {
			if _, err := sess.Join(site, server.Subscriber{}); err != nil {
				t.Fatal(err)
			}
		}
		writer := core.NewClient(1, "base")
		for i := 1; i <= ops; i++ {
			m, err := writer.Insert(0, "x")
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Receive(m); err != nil {
				t.Fatal(err)
			}
			if !acking || i%16 != 0 {
				continue
			}
			// Site 2 is up to date, site 3 a round behind and repeats itself.
			for _, ack := range [][2]int{{2, i}, {3, i - 16}, {3, i - 16}} {
				if err := sess.Ack(ack[0], uint64(ack[1])); err != nil {
					t.Fatalf("ack %v: %v", ack, err)
				}
			}
		}
		child, _ := reg.Snapshot().Child("(default)")
		hbLen = child.Gauges[obs.GHBLen]
		if acking && (child.Counters[core.CAcksReceived] == 0 || child.Counters[core.CAcksStale] == 0) {
			t.Fatalf("counters %v: want acknowledgements received and stale", child.Counters)
		}
		if err := mgr.Close(); err != nil {
			t.Fatal(err)
		}
		journalBytes, err = os.ReadFile(filepath.Join(dir, "j"))
		if err != nil {
			t.Fatal(err)
		}
		if srv, n, err := journal.Replay(filepath.Join(dir, "j"), "base"); err != nil || n != 3+ops || srv.Text() != writer.Text() {
			t.Fatalf("journal replays %d records (%v), want %d and the writer's document", n, err, 3+ops)
		}
		return journalBytes, hbLen
	}
	silent, silentHB := run(false)
	acked, ackedHB := run(true)
	if !bytes.Equal(silent, acked) {
		t.Fatalf("journal is %d bytes without acknowledgements and %d with: an acknowledgement reached it", len(silent), len(acked))
	}
	if silentHB != ops || ackedHB > 64+16+16 {
		t.Fatalf("hb.len %d without acknowledgements and %d with, want %d and at most a compaction round past the laggard", silentHB, ackedHB, ops)
	}
}

// TestRecoveredSessionAssignsFreshSiteIds: a departed site's counters stay in
// SV_0 for its rejoin, so after recovery an auto-assigned joiner must get an
// id the journal has never seen.
func TestRecoveredSessionAssignsFreshSiteIds(t *testing.T) {
	dir := t.TempDir()
	mgr := journaledManager(dir)
	sess, err := mgr.GetOrCreate("")
	if err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 3; want++ {
		snap, err := sess.Join(0, server.Subscriber{})
		if err != nil || snap.Site != want {
			t.Fatalf("first life join = site %d, %v; want %d", snap.Site, err, want)
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	mgr2 := journaledManager(dir)
	defer mgr2.Close()
	sess2, err := mgr2.GetOrCreate("")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := sess2.Join(0, server.Subscriber{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Site != 4 {
		t.Fatalf("auto-assigned site %d on a journal that saw sites 1-3, want 4", snap.Site)
	}
	// An explicit rejoin still gets its old id back.
	if snap, err := sess2.Join(2, server.Subscriber{}); err != nil || snap.Site != 2 {
		t.Fatalf("rejoin as 2 = site %d, %v", snap.Site, err)
	}
}

// TestWriteAheadDiscipline pins the journal's ordering rules inside the
// session actor: an accepted operation is on disk by the time Receive
// returns, an operation the engine would refuse is never written, and when
// the journal itself fails neither an operation nor a join takes effect.
func TestWriteAheadDiscipline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	mgr := journaledManager(dir)
	defer mgr.Close()
	sess, err := mgr.GetOrCreate("")
	if err != nil {
		t.Fatal(err)
	}
	var delivered int
	if _, err := sess.Join(1, server.Subscriber{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Join(2, server.Subscriber{Deliver: func(core.ServerMsg) { delivered++ }}); err != nil {
		t.Fatal(err)
	}
	client := core.NewClient(1, "base")
	send := func(text string) error {
		m, err := client.Insert(0, text)
		if err != nil {
			t.Fatal(err)
		}
		return sess.Receive(m)
	}
	replayed := func() (string, int) {
		t.Helper()
		srv, n, err := journal.Replay(path, "base")
		if err != nil {
			t.Fatal(err)
		}
		return srv.Text(), n
	}

	// Accepted: durable before Receive returns (the writer is still open).
	if err := send("a"); err != nil {
		t.Fatal(err)
	}
	text, records := replayed()
	if text != "abase" || records != 3 {
		t.Fatalf("journal after one op replays to %q in %d records, want %q in 3", text, records, "abase")
	}

	// Refused by Precheck (a FIFO gap): never journaled, never applied.
	m, _ := client.Insert(0, "lost")
	gap, _ := client.Insert(0, "gap")
	if err := sess.Receive(gap); err == nil {
		t.Fatal("an operation that skips a sequence number was accepted")
	}
	if text, n := replayed(); text != "abase" || n != records {
		t.Fatalf("a refused operation reached the journal: %q in %d records", text, n)
	}
	if err := sess.Receive(m); err != nil { // the link is still in order
		t.Fatal(err)
	}
	if err := sess.Receive(gap); err != nil {
		t.Fatal(err)
	}
	before := sess.Text()
	if !strings.HasPrefix(before, "gaplost") || delivered != 3 {
		t.Fatalf("notifier holds %q after %d deliveries", before, delivered)
	}

	// The journal breaks: an operation is refused before any effect...
	sess.BreakJournal()
	if err := send("x"); err == nil {
		t.Fatal("an operation was accepted with no journal to hold it")
	}
	if got := sess.Text(); got != before || delivered != 3 {
		t.Fatalf("an unjournaled operation took effect: %q, %d deliveries", got, delivered)
	}
	// ...and a join is rolled back out of the engine.
	admitted := false
	if _, err := sess.Join(7, server.Subscriber{Admitted: func(core.Snapshot) { admitted = true }}); err == nil {
		t.Fatal("a site was admitted with no journal to hold the join")
	}
	if admitted {
		t.Fatal("a rolled-back joiner was sent a snapshot")
	}
	received, _ := sess.Counts()
	if _, in := received[7]; in || len(sess.Sites()) != 2 {
		t.Fatalf("rolled-back site still joined: sites %v", sess.Sites())
	}
}
