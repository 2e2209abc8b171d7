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
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/server"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	listen := flag.String("listen", "127.0.0.1:7467", "address to listen on")
	text := flag.String("text", "", "initial document text (of every new session)")
	file := flag.String("file", "", "load the initial document from a file (overrides -text)")
	relay := flag.Bool("unsafe-relay", false, "ablation: relay ORIGINAL operations (breaks consistency; for experiments)")
	status := flag.Duration("status", 10*time.Second, "status print interval (0 disables)")
	journalPath := flag.String("journal", "", "persist sessions to journal files and recover from them on restart: the default document to this path, a named session to <path>.<name>")
	debug := flag.String("debug", "", "serve /metricz, /tracez, pprof and expvar on this address (empty disables)")
	traceOn := flag.Bool("trace", false, "start with causality-decision tracing enabled (needs -debug; toggle later via POST /tracez?enable=)")
	writerPool := flag.Int("writer-pool", 0, "drain outbound queues and dispatch event-capable reads with this many shared goroutines each (-1 = GOMAXPROCS, 0 = dedicated goroutines per connection)")
	idleDehydrate := flag.Duration("idle-dehydrate", 0, "park sessions idle for this long into compact checkpoints (0 disables)")
	poller := flag.String("poller", "auto", "TCP readiness poller: auto (use it when the platform has one), on (require it), off (dedicated readers)")
	spanSample := flag.Int("span-sample", 0, "trace every Nth operation's lifecycle (stage latencies at /spanz; 0 disables; needs -debug)")
	sloP99 := flag.Duration("slo-p99", 0, "SLO flight recorder: dump a diagnostic bundle when the windowed p99 of receive.ns or span.total.ns exceeds this (0 disables; needs -debug)")
	sloDir := flag.String("slo-dir", "slo-bundles", "directory receiving flight-recorder bundles")
	flag.Parse()

	initial := *text
	if *file != "" {
		b, err := os.ReadFile(*file)
		if err != nil {
			log.Fatalf("reducesrv: %v", err)
		}
		initial = string(b)
	}

	// The poller knob decides which listener feeds the server: poller-backed
	// connections are EventConns (zero dedicated reader goroutines once a
	// dispatcher runs, i.e. with -writer-pool), dedicated-reader ones are
	// not. "auto" is the capability probe; "on" refuses to run degraded.
	var ln transport.Listener
	var err error
	switch *poller {
	case "auto", "on":
		if *poller == "on" && !transport.PollerCapable() {
			log.Fatalf("reducesrv: -poller=on but this platform has no readiness poller")
		}
		ln, err = transport.ListenEventTCP(*listen)
	case "off":
		ln, err = transport.ListenTCP(*listen)
	default:
		log.Fatalf("reducesrv: -poller=%q (want auto, on, or off)", *poller)
	}
	if err != nil {
		log.Fatalf("reducesrv: listen: %v", err)
	}
	if transport.PollerCapable() && *poller != "off" {
		log.Printf("reducesrv: TCP readiness poller active (reads are epoll-driven)")
	}
	mopts := []server.ManagerOption{server.WithInitialText(initial)}
	if *relay {
		mopts = append(mopts, server.WithEngineOptions(core.WithServerMode(core.ModeRelay)))
		log.Printf("WARNING: relay mode — operations are not transformed; divergence expected")
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
	} else if *traceOn {
		log.Fatalf("reducesrv: -trace needs -debug")
	}

	// Lifecycle tracing samples every Nth client op. The server never sees
	// the editor's remote-integrate stamp (editors are separate processes),
	// so spans complete at the broadcast write.
	var spans *span.Tracer
	if *spanSample > 0 {
		if reg == nil {
			log.Fatalf("reducesrv: -span-sample needs -debug")
		}
		spans = span.NewTracer(reg, span.Config{
			SampleEvery:   uint64(*spanSample),
			FinishOnWrite: true,
		})
		spans.SetEnabled(true)
		mopts = append(mopts, server.WithSpanTracer(spans))
		log.Printf("reducesrv: tracing 1/%d op lifecycles (/spanz)", *spanSample)
	}
	if *sloP99 > 0 && reg == nil {
		log.Fatalf("reducesrv: -slo-p99 needs -debug")
	}
	if *idleDehydrate > 0 {
		mopts = append(mopts, server.WithIdleDehydrate(*idleDehydrate))
		log.Printf("reducesrv: sessions idle for %v dehydrate to checkpoints", *idleDehydrate)
	}
	if *journalPath != "" {
		mopts = append(mopts, server.WithJournal(server.JournalFiles(*journalPath)))
		log.Printf("reducesrv: journaling to %s", *journalPath)
	}

	// One server whatever the flags: every session name maps to an
	// independent notifier engine on its own goroutine (internal/server), and
	// a plain single-document join lands in the default session "".
	mgr := server.NewManager(mopts...)
	if *journalPath != "" {
		// Recover the default document now, so a journal that cannot be
		// replayed stops the daemon instead of refusing every editor later.
		if _, err := mgr.GetOrCreate(""); err != nil {
			log.Fatalf("reducesrv: %v", err)
		}
	}
	var sopts []server.ServeOption
	if *writerPool != 0 {
		// The lean connection layer: pooled writers and, on event-capable
		// transports (the poller's connections), dispatched readers.
		sopts = append(sopts, server.WithWriterPool(*writerPool), server.WithEventDispatch(*writerPool))
	}
	svc := server.Serve(ln, mgr, sopts...)
	log.Printf("reducesrv: notifier listening on %s (%d bytes of initial text per new session)",
		svc.Addr(), len(initial))
	if reg != nil {
		ready := func() (bool, string) {
			return true, fmt.Sprintf("sessions=%d", mgr.Len())
		}
		serveDebug(*debug, reg, ring, spans, ready)
		startFlightRecorder(reg, ring, spans, *sloP99, *sloDir)
	}

	if *status > 0 {
		go func() {
			for range time.Tick(*status) {
				log.Printf("status: %s", svc)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println()
	for _, st := range mgr.Stats() {
		log.Printf("reducesrv: session %q: %d sites, %d ops, %d runes", st.Name, st.Sites, st.Ops, st.Doc)
	}
	if sess, ok := mgr.Get(""); ok {
		log.Printf("reducesrv: shutting down; final document:\n%s", sess.Text())
	}
	_ = svc.Close()
	if err := mgr.Close(); err != nil {
		log.Printf("reducesrv: %v", err)
	}
}

// serveDebug mounts the introspection endpoint in the background. Debug HTTP
// failing must not take the notifier down — it logs and moves on.
func serveDebug(addr string, reg *obs.Registry, ring *obs.DecisionRing, spans *span.Tracer, ready func() (bool, string)) {
	hopts := []obs.HandlerOption{obs.WithHealth(ready)}
	if spans != nil {
		hopts = append(hopts, obs.WithEndpoint("/spanz", spans.Handler()))
	}
	h := server.DebugHandler(reg, ring, hopts...)
	log.Printf("reducesrv: debug endpoint on http://%s/metricz (tracing %v)", addr, ring.Enabled())
	go func() {
		if err := http.ListenAndServe(addr, h); err != nil {
			log.Printf("reducesrv: debug endpoint: %v", err)
		}
	}()
}

// startFlightRecorder launches the SLO watcher when -slo-p99 is set. spans
// and ring may be nil — their bundle files are simply absent.
func startFlightRecorder(reg *obs.Registry, ring *obs.DecisionRing, spans *span.Tracer, p99 time.Duration, dir string) {
	if p99 <= 0 {
		return
	}
	fr := span.NewFlightRecorder(reg.Snapshot, spans, ring, span.FlightConfig{
		Dir:         dir,
		ThresholdNs: p99.Nanoseconds(),
	})
	fr.Start()
	log.Printf("reducesrv: SLO flight recorder armed (p99 > %v dumps to %s)", p99, dir)
}
