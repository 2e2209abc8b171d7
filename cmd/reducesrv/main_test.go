package main

import (
	"bytes"
	"context"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/transport"
)

// lockedBuffer is the daemon's log: run writes it from several goroutines
// while the test reads it for the addresses the daemon bound.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one in-process run of the command.
type daemon struct {
	cancel context.CancelFunc
	done   chan error
	log    *lockedBuffer
}

func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{cancel: cancel, done: make(chan error, 1), log: &lockedBuffer{}}
	go func() { d.done <- run(ctx, args, log.New(d.log, "", 0)) }()
	t.Cleanup(func() {
		cancel()
		if t.Failed() {
			t.Logf("daemon log:\n%s", d.log)
		}
	})
	return d
}

var (
	listening = regexp.MustCompile(`notifier listening on (\S+)`)
	debugging = regexp.MustCompile(`debug endpoint on http://([^/]+)/`)
)

// logged waits for the daemon to log a line matching re and returns its
// first group — how a daemon told to bind port 0 says which port it got.
func (d *daemon) logged(t *testing.T, re *regexp.Regexp) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := re.FindStringSubmatch(d.log.String()); m != nil {
			return m[1]
		}
		select {
		case err := <-d.done:
			t.Fatalf("daemon exited before logging %v: %v", re, err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never logged %v", re)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop cancels the daemon's context, requires a clean return, and requires
// every address it had bound to refuse a connection afterwards.
func (d *daemon) stop(t *testing.T, bound ...string) {
	t.Helper()
	d.cancel()
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("daemon shut down with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not return after cancel")
	}
	for _, addr := range bound {
		if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			c.Close()
			t.Fatalf("%s still accepts connections after shutdown", addr)
		}
	}
}

func connect(t *testing.T, addr string) *repro.Editor {
	t.Helper()
	conn, err := transport.DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	ed, err := repro.Connect(conn, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ed.Close() })
	return ed
}

// TestDaemon drives flag wiring, journal recovery and shutdown in-process,
// once per connection layout: two editors converge through the daemon, it is
// cancelled, and a second run on the same journal serves the converged text.
// (TestCrashRestartFromJournals in internal/server owns the kill -9 cases.)
func TestDaemon(t *testing.T) {
	for _, row := range []struct {
		name  string
		debug bool // the row also serves -debug and prints -status lines
		flags []string
	}{
		{"default", true, []string{"-debug", "127.0.0.1:0", "-trace", "-status", "5ms"}},
		{"lean", false, []string{"-writer-pool", "-1", "-idle-dehydrate", "50ms"}},
	} {
		t.Run(row.name, func(t *testing.T) {
			flags := append([]string{"-listen", "127.0.0.1:0", "-text", "seed.",
				"-journal", filepath.Join(t.TempDir(), "journal")}, row.flags...)

			d := start(t, flags...)
			bound := []string{d.logged(t, listening)}
			a, b := connect(t, bound[0]), connect(t, bound[0])
			const each = 20
			for i := 0; i < each; i++ {
				if err := a.Insert(0, "a"); err != nil {
					t.Fatal(err)
				}
				if err := b.Insert(b.Len(), "b"); err != nil {
					t.Fatal(err)
				}
			}
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				fromA, _ := b.SV()
				fromB, _ := a.SV()
				if fromA == each && fromB == each {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("editors never received each other's %d ops (got %d and %d)", each, fromA, fromB)
				}
			}
			converged := a.Text()
			if b.Text() != converged || len(converged) != len("seed.")+2*each {
				t.Fatalf("editors diverged: %q vs %q", converged, b.Text())
			}
			if row.debug {
				bound = append(bound, d.logged(t, debugging))
				resp, err := http.Get("http://" + bound[1] + "/metricz")
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("/metricz: %s", resp.Status)
				}
				d.logged(t, regexp.MustCompile(`(status: \S+)`))
			}
			a.Close()
			b.Close()
			d.stop(t, bound...)

			d = start(t, flags...)
			addr := d.logged(t, listening)
			if got := connect(t, addr).Text(); got != converged {
				t.Fatalf("recovered %q from the journal, want the converged %q", got, converged)
			}
			d.stop(t, addr)
		})
	}
}

// TestBadFlags: combinations the daemon used to log.Fatalf on come back as
// errors, before anything listens.
func TestBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace"}, "need -debug"},
		{[]string{"-span-sample", "8"}, "need -debug"},
		{[]string{"-no-such-flag"}, "not defined"},
	} {
		err := run(context.Background(), c.args, log.New(&lockedBuffer{}, "", 0))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("reducesrv %v: error %v, want one containing %q", c.args, err, c.want)
		}
	}
}
