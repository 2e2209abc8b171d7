package main

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/transport"
)

// rigConfig is what differs between the repetitions of a run.
type rigConfig struct {
	traced     bool          // tap every connection, not just the observers
	stall      time.Duration // give up on the run after this long without a completed edit
	probeJoins int           // joins timed after the measured phase where the workload has no churn
	hideEvery  int           // broken-tap test hook, see tap.hideEvery
	yard       *yardstick    // read in the pauses of the measured phase; nil skips the readings
}

// rig is one complete system under test: the notifier started the way
// `reducesrv -multi` starts it with default flags, plus every editor of the
// workload attached over loopback TCP. A repetition builds a fresh one.
type rig struct {
	w   *workload
	cfg rigConfig
	doc string

	mgr *server.Manager
	svc *server.Service

	sessions []*session
	writers  []*writer
	drivers  []*driver
	counts   *tapCounts // traced only

	integrated atomic.Int64 // edits the observers have integrated, counted by their taps
	setupNs    int64
	shortest   int // the fewest edits any driver has; places the pauses
}

type session struct {
	name     string
	writers  []*writer
	idle     []*repro.Editor
	observer *repro.Editor
	bad      bool // set by converge: a replica diverged or an editor failed
}

// writer is one editing site and the span table of its operations, indexed
// by seq-1. Each column has a single owner goroutine (named on the right)
// and is read only after the rig is closed.
type writer struct {
	ed   *repro.Editor
	drv  *driver
	sess *session
	site int
	seq  uint64 // ops generated so far; driver-owned

	issued, done        []int64 // driver: before / after Editor.Insert|Delete
	arrived, integrated []int64 // observer tap
	sendEnter, sendExit []int64 // writer tap (traced)
	sent                int     // writer tap
}

// newRig starts the notifier and joins every editor; the time it takes is the
// run's setup_s sample. counts[i] is the number of ops writer i will issue.
func newRig(w *workload, doc string, cfg rigConfig, counts []int) (*rig, error) {
	r := &rig{w: w, cfg: cfg, doc: doc}
	if cfg.traced {
		r.counts = &tapCounts{}
	}
	for d := 0; d < w.drivers; d++ {
		r.drivers = append(r.drivers, &driver{tokens: make(chan struct{}, w.window), ready: make(chan struct{}, w.drivers-1)})
	}
	// The span tables are the benchmark's, not the system's: allocate them
	// before the set-up clock starts.
	r.writers = make([]*writer, w.sessions*w.writers)
	for d, idxs := range w.layout() {
		for _, i := range idxs {
			n := counts[i]
			wr := &writer{drv: r.drivers[d]}
			wr.issued, wr.done = make([]int64, n), make([]int64, n)
			wr.arrived, wr.integrated = make([]int64, n), make([]int64, n)
			if cfg.traced {
				wr.sendEnter, wr.sendExit = make([]int64, n), make([]int64, n)
			}
			r.writers[i] = wr
			wr.drv.writers = append(wr.drv.writers, wr)
		}
	}

	start := now()
	// Exactly cmd/reducesrv's -multi path with default flags: no layout
	// options, so a later change of defaults is measured, not bypassed.
	ln, err := transport.ListenEventTCP("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r.mgr = server.NewManager(server.WithInitialText(doc))
	r.svc = server.Serve(ln, r.mgr)
	for s := 0; s < w.sessions; s++ {
		sess := &session{name: fmt.Sprintf("doc%02d", s)}
		r.sessions = append(r.sessions, sess)
		r.drivers[s%w.drivers].sessions = append(r.drivers[s%w.drivers].sessions, sess)
		var sites []*writer
		for _, wr := range r.writers[s*w.writers : (s+1)*w.writers] {
			wr.sess = sess
			if wr.ed, _, err = r.join(sess, &tap{wr: wr}, cfg.traced); err != nil {
				r.close()
				return nil, err
			}
			sess.writers = append(sess.writers, wr)
			wr.site = wr.ed.Site()
			_, wr.seq = wr.ed.SV()
			for len(sites) <= wr.site {
				sites = append(sites, nil)
			}
			sites[wr.site] = wr
		}
		for i := 0; i < w.editors-w.writers-1; i++ {
			ed, _, err := r.join(sess, &tap{}, cfg.traced)
			if err != nil {
				r.close()
				return nil, err
			}
			sess.idle = append(sess.idle, ed)
		}
		if sess.observer, _, err = r.join(sess, &tap{sites: sites, integrated: &r.integrated, hideEvery: cfg.hideEvery}, true); err != nil {
			r.close()
			return nil, err
		}
	}
	r.setupNs = now() - start
	return r, nil
}

// join dials the notifier and completes the snapshot handshake, returning
// the editor and how long that took. The connection goes through t when
// tapped is set.
func (r *rig) join(sess *session, t *tap, tapped bool) (*repro.Editor, int64, error) {
	start := now()
	conn, err := transport.DialTCP(r.svc.Addr())
	if err != nil {
		return nil, 0, fmt.Errorf("dial: %w", err)
	}
	if tapped {
		fc, ok := conn.(transport.FrameConn)
		if !ok {
			_ = conn.Close()
			return nil, 0, errors.New("TCP conn is not a transport.FrameConn")
		}
		t.FrameConn, t.counts = fc, r.counts
		conn = t
	}
	ed, err := repro.ConnectSession(conn, sess.name, 0)
	if err != nil {
		_ = conn.Close()
		return nil, 0, fmt.Errorf("join %s: %w", sess.name, err)
	}
	return ed, now() - start, nil
}

// editors lists every editor of a session.
func (s *session) editors() []*repro.Editor {
	eds := make([]*repro.Editor, 0, len(s.writers)+len(s.idle)+1)
	for _, wr := range s.writers {
		eds = append(eds, wr.ed)
	}
	eds = append(eds, s.idle...)
	if s.observer != nil {
		eds = append(eds, s.observer)
	}
	return eds
}

// converge waits until every replica of every session equals the notifier's
// document, marks the sessions that never got there or whose editors report
// an error, and returns one line per such session. The observers have
// integrated every op by the time this runs, so the notifier's text is final;
// only the untapped replicas can still be catching up, and polling them
// perturbs nothing that is measured.
func (r *rig) converge(timeout time.Duration) []string {
	deadline := time.Now().Add(timeout)
	var bad []string
	for _, sess := range r.sessions {
		srv, ok := r.mgr.Get(sess.name)
		if !ok {
			bad = append(bad, sess.name+": session missing at the notifier")
			sess.bad = true
			continue
		}
		want := srv.Text()
		for _, ed := range sess.editors() {
			for ed.Text() != want && ed.Err() == nil && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if err := ed.Err(); err != nil {
				bad = append(bad, fmt.Sprintf("%s: site %d: %v", sess.name, ed.Site(), err))
				sess.bad = true
				break
			}
			if ed.Text() != want {
				bad = append(bad, fmt.Sprintf("%s: site %d diverged from the notifier", sess.name, ed.Site()))
				sess.bad = true
				break
			}
		}
	}
	return bad
}

// close tears the system down and waits for every goroutine it started.
func (r *rig) close() {
	for _, sess := range r.sessions {
		for _, ed := range sess.editors() {
			if ed != nil {
				_ = ed.Close()
			}
		}
	}
	if r.svc != nil {
		_ = r.svc.Close()
	}
	if r.mgr != nil {
		_ = r.mgr.Close()
	}
}
