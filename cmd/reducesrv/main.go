// Command reducesrv runs the notifier (site 0) of the Web-based REDUCE
// group editor as a TCP daemon — the role the paper's Java notifier
// application plays at the Web server machine (Fig. 1).
//
//	reducesrv -listen :7467 -text "initial document"
//
// Editors connect with cmd/reducecli (or any client of the wire protocol). A
// plain join edits the default document; a client that names a session gets
// that document, an independent notifier engine in the same process.
// With -debug the process also serves a live introspection endpoint
// (/metricz, /tracez, pprof, expvar; poll it with cmd/cvcstat):
//
//	reducesrv -listen :7467 -debug 127.0.0.1:7468
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/server"
	"repro/internal/transport"
)

func main() {
	logger := log.New(os.Stderr, "", 0)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], logger); err != nil && !errors.Is(err, flag.ErrHelp) {
		logger.Fatalf("reducesrv: %v", err)
	}
}

// run is the daemon: it serves until ctx is cancelled, then stops everything
// it started — listener, connections, sessions (flushing their journals),
// status ticker, debug endpoint, flight recorder — and returns. A bad flag
// or an unrecoverable journal is an error before anything listens.
func run(ctx context.Context, args []string, logger *log.Logger) error {
	fs := flag.NewFlagSet("reducesrv", flag.ContinueOnError)
	fs.SetOutput(logger.Writer())
	listen := fs.String("listen", "127.0.0.1:7467", "address to listen on")
	text := fs.String("text", "", "initial document text (of every new session)")
	file := fs.String("file", "", "load the initial document from a file (overrides -text)")
	relay := fs.Bool("unsafe-relay", false, "ablation: relay ORIGINAL operations (breaks consistency; for experiments)")
	status := fs.Duration("status", 10*time.Second, "status print interval (0 disables)")
	journalPath := fs.String("journal", "", "persist sessions to journal files and recover from them on restart: the default document to this path, a named session to <path>.<name>")
	debug := fs.String("debug", "", "serve /metricz, /tracez, pprof and expvar on this address (empty disables)")
	traceOn := fs.Bool("trace", false, "start with causality-decision tracing enabled (needs -debug; toggle later via POST /tracez?enable=)")
	writerPool := fs.Int("writer-pool", 0, "drain outbound queues and dispatch event-capable reads with this many shared goroutines each (-1 = GOMAXPROCS, 0 = dedicated goroutines per connection)")
	idleDehydrate := fs.Duration("idle-dehydrate", 0, "park sessions idle for this long into compact checkpoints (0 disables)")
	poller := fs.String("poller", "auto", "TCP readiness poller: auto (use it when the platform has one), on (require it), off (dedicated readers)")
	spanSample := fs.Int("span-sample", 0, "trace every Nth operation's lifecycle (stage latencies at /spanz; 0 disables; needs -debug)")
	sloP99 := fs.Duration("slo-p99", 0, "SLO flight recorder: dump a diagnostic bundle when the windowed p99 of receive.ns or span.total.ns exceeds this (0 disables; needs -debug)")
	sloDir := fs.String("slo-dir", "slo-bundles", "directory receiving flight-recorder bundles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *debug == "" && (*traceOn || *spanSample > 0 || *sloP99 > 0) {
		return errors.New("-trace, -span-sample and -slo-p99 need -debug")
	}
	// "auto" is the capability probe; "on" refuses to run degraded.
	switch *poller {
	case "auto", "off":
	case "on":
		if !transport.PollerCapable() {
			return errors.New("-poller=on but this platform has no readiness poller")
		}
	default:
		return fmt.Errorf("-poller=%q (want auto, on, or off)", *poller)
	}

	initial := *text
	if *file != "" {
		b, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		initial = string(b)
	}
	mopts := []server.ManagerOption{server.WithInitialText(initial)}
	if *relay {
		mopts = append(mopts, server.WithEngineOptions(core.WithServerMode(core.ModeRelay)))
		logger.Printf("WARNING: relay mode — operations are not transformed; divergence expected")
	}

	// Observability is opt-in: without -debug no registry or ring exists and
	// the engines run exactly the uninstrumented hot path.
	var reg *obs.Registry
	var ring *obs.DecisionRing
	if *debug != "" {
		reg = obs.NewRegistry("reducesrv")
		ring = obs.NewDecisionRing(obs.DefaultRingCapacity)
		ring.SetEnabled(*traceOn)
		mopts = append(mopts, server.WithObservability(reg), server.WithDecisionRing(ring))
	}

	// Lifecycle tracing samples every Nth client op. The server never sees
	// the editor's remote-integrate stamp (editors are separate processes),
	// so spans complete at the broadcast write.
	var spans *span.Tracer
	if *spanSample > 0 {
		spans = span.NewTracer(reg, span.Config{
			SampleEvery:   uint64(*spanSample),
			FinishOnWrite: true,
		})
		spans.SetEnabled(true)
		mopts = append(mopts, server.WithSpanTracer(spans))
		logger.Printf("reducesrv: tracing 1/%d op lifecycles (/spanz)", *spanSample)
	}
	if *idleDehydrate > 0 {
		mopts = append(mopts, server.WithIdleDehydrate(*idleDehydrate))
		logger.Printf("reducesrv: sessions idle for %v dehydrate to checkpoints", *idleDehydrate)
	}
	if *journalPath != "" {
		mopts = append(mopts, server.WithJournal(server.JournalFiles(*journalPath)))
		logger.Printf("reducesrv: journaling to %s", *journalPath)
	}

	// One server whatever the flags: every session name maps to an
	// independent notifier engine on its own goroutine (internal/server), and
	// a plain single-document join lands in the default session "".
	mgr := server.NewManager(mopts...)
	if *journalPath != "" {
		// Recover the default document now, so a journal that cannot be
		// replayed stops the daemon instead of refusing every editor later.
		if _, err := mgr.GetOrCreate(""); err != nil {
			_ = mgr.Close()
			return err
		}
	}

	// The poller knob decides which listener feeds the server: poller-backed
	// connections are EventConns (zero dedicated reader goroutines once a
	// dispatcher runs, i.e. with -writer-pool), dedicated-reader ones are
	// not.
	var ln transport.Listener
	var err error
	if *poller == "off" {
		ln, err = transport.ListenTCP(*listen)
	} else {
		ln, err = transport.ListenEventTCP(*listen)
	}
	if err != nil {
		_ = mgr.Close()
		return fmt.Errorf("listen: %w", err)
	}
	if transport.PollerCapable() && *poller != "off" {
		logger.Printf("reducesrv: TCP readiness poller active (reads are epoll-driven)")
	}
	var sopts []server.ServeOption
	if *writerPool != 0 {
		// The lean connection layer: pooled writers and, on event-capable
		// transports (the poller's connections), dispatched readers.
		sopts = append(sopts, server.WithWriterPool(*writerPool), server.WithEventDispatch(*writerPool))
	}
	svc := server.Serve(ln, mgr, sopts...)
	logger.Printf("reducesrv: notifier listening on %s (%d bytes of initial text per new session)",
		svc.Addr(), len(initial))

	// Everything below runs beside the service and ends with ctx.
	var background sync.WaitGroup
	var debugSrv *http.Server
	if reg != nil {
		ready := func() (bool, string) {
			return true, fmt.Sprintf("sessions=%d", mgr.Len())
		}
		debugSrv = serveDebug(&background, logger, *debug, reg, ring, spans, ready)
		if *sloP99 > 0 {
			fr := span.NewFlightRecorder(reg.Snapshot, spans, ring, span.FlightConfig{
				Dir:         *sloDir,
				ThresholdNs: sloP99.Nanoseconds(),
			})
			fr.Start()
			defer fr.Stop()
			logger.Printf("reducesrv: SLO flight recorder armed (p99 > %v dumps to %s)", *sloP99, *sloDir)
		}
	}
	if *status > 0 {
		background.Add(1)
		go func() {
			defer background.Done()
			tick := time.NewTicker(*status)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					logger.Printf("status: %s", svc)
				}
			}
		}()
	}

	<-ctx.Done()
	if debugSrv != nil {
		_ = debugSrv.Close()
	}
	background.Wait()
	for _, st := range mgr.Stats() {
		logger.Printf("reducesrv: session %q: %d sites, %d ops, %d runes", st.Name, st.Sites, st.Ops, st.Doc)
	}
	if sess, ok := mgr.Get(""); ok {
		logger.Printf("reducesrv: shutting down; final document:\n%s", sess.Text())
	}
	_ = svc.Close()
	return mgr.Close()
}

// serveDebug mounts the introspection endpoint in the background until the
// returned server is closed. Debug HTTP failing must not take the notifier
// down — it logs, returns nil and moves on.
func serveDebug(background *sync.WaitGroup, logger *log.Logger, addr string, reg *obs.Registry, ring *obs.DecisionRing, spans *span.Tracer, ready func() (bool, string)) *http.Server {
	hopts := []obs.HandlerOption{obs.WithHealth(ready)}
	if spans != nil {
		hopts = append(hopts, obs.WithEndpoint("/spanz", spans.Handler()))
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Printf("reducesrv: debug endpoint: %v", err)
		return nil
	}
	srv := &http.Server{Handler: server.DebugHandler(reg, ring, hopts...)}
	logger.Printf("reducesrv: debug endpoint on http://%s/metricz (tracing %v)", ln.Addr(), ring.Enabled())
	background.Add(1)
	go func() {
		defer background.Done()
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("reducesrv: debug endpoint: %v", err)
		}
	}()
	return srv
}
