// Command cvcstat renders live observability snapshots from a running
// reducesrv -debug endpoint: per-session tables (sites, ops, history-buffer
// length, clock words, receive latency) plus the process-wide wire and
// transport counters.
//
//	cvcstat -addr 127.0.0.1:7468              # refresh every 2s
//	cvcstat -addr 127.0.0.1:7468 -once        # one snapshot and exit
//
// The clock-words column is EXPERIMENTS.md E4 live: with compaction running
// it stays near sites+2 words however many operations flow.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/stats"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", "127.0.0.1:7468", "debug endpoint address (reducesrv -debug)")
	interval := flag.Duration("interval", 2*time.Second, "poll interval")
	once := flag.Bool("once", false, "print one snapshot and exit")
	flag.Parse()

	url := *addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimRight(url, "/") + "/metricz?format=json"

	for {
		snap, err := fetch(url)
		if err != nil {
			log.Fatalf("cvcstat: %v", err)
		}
		var out strings.Builder
		render(&out, snap)
		if !*once {
			// Clear between refreshes so the table reads like a live top(1).
			fmt.Print("\033[H\033[2J")
		}
		os.Stdout.WriteString(out.String())
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// fetch pulls one JSON snapshot from the debug endpoint.
func fetch(url string) (obs.Snapshot, error) {
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return obs.Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.Snapshot{}, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return obs.Snapshot{}, err
	}
	var s obs.Snapshot
	if err := json.Unmarshal(body, &s); err != nil {
		return obs.Snapshot{}, fmt.Errorf("decode %s: %w", url, err)
	}
	return s, nil
}

// render writes the live tables for one snapshot. Split from main so the
// integration test can drive it against a recorded snapshot.
func render(w io.Writer, s obs.Snapshot) {
	fmt.Fprintf(w, "%s @ %s\n\n", s.Name, time.Now().Format(time.TimeOnly))

	// Per-session table: one registry child per session; a single-document
	// server's only row is the default session's child, "(default)".
	var t stats.Table
	t.Header("session", "res", "sites", "ops", "doc", "hb", "clock_words", "checks", "transforms", "tf/op", "cache hit%", "recv p50", "recv p99")
	for _, c := range s.Children {
		t.Row(c.Name, residentStr(c.Gauges),
			gaugeCell(c.Gauges, obs.GSites), gaugeCell(c.Gauges, obs.GOpsRecv), gaugeCell(c.Gauges, obs.GDocRunes),
			gaugeCell(c.Gauges, obs.GHBLen), gaugeCell(c.Gauges, obs.GClockWords),
			gaugeCell(c.Counters, "checks.total"), gaugeCell(c.Counters, "ot.transforms"),
			ratioStr(c.Counters["ot.transforms"], c.Counters["ops.integrated"]),
			pctStr(c.Counters["ot.cache.hits"], c.Counters["ot.cache.hits"]+c.Counters["ot.cache.misses"]),
			histQCell(c.Hists, obs.HReceiveNs, 0.5), histQCell(c.Hists, obs.HReceiveNs, 0.99))
	}
	fmt.Fprintln(w, t.String())

	renderStages(w, s)

	// Process-wide counters: wire and transport traffic, queue pressure.
	var p stats.Table
	p.Header("counter", "value")
	for _, k := range sortedKeys(s.Counters) {
		p.Row(k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Gauges) {
		p.Row(k, s.Gauges[k])
	}
	if qh, ok := s.Hists[obs.HQueueDepth]; ok {
		p.Row("conn.queue.depth p50", qh.Quantile(0.5))
		p.Row("conn.queue.depth max", qh.Max)
	}
	// How far the shared workers fall behind: the ready ring's depth at
	// every push (only present with pooled writers or dispatched reads).
	if rh, ok := s.Hists[obs.HDispatchRingDepth]; ok && rh.Count > 0 {
		p.Row("dispatch.ring.depth p50", rh.Quantile(0.5))
		p.Row("dispatch.ring.depth max", rh.Max)
	}
	// How many connections each epoll_wait services: the poller's
	// amortization factor (only present on poller-capable platforms).
	if ew, ok := s.Hists[obs.HPollerEventsPerWait]; ok {
		p.Row("poller.events_per_wait p50", ew.Quantile(0.5))
		p.Row("poller.events_per_wait max", ew.Max)
	}
	fmt.Fprintln(w, p.String())
}

// renderStages prints the op-lifecycle stage breakdown when the server runs
// a span tracer (reducesrv -span-sample): one row per pipeline stage in
// pipeline order, plus the end-to-end total. Servers without tracing expose
// none of these histograms and the section is omitted entirely.
func renderStages(w io.Writer, s obs.Snapshot) {
	any := false
	for i := 0; i < span.NumStages; i++ {
		if _, ok := s.Hists[span.StageHistName(span.Stage(i))]; ok {
			any = true
			break
		}
	}
	if _, ok := s.Hists[span.HistTotal]; !any && !ok {
		return
	}
	var t stats.Table
	t.Header("stage", "count", "p50", "p99", "max")
	row := func(label, hist string) {
		h, ok := s.Hists[hist]
		if !ok {
			t.Row(label, "-", "-", "-", "-")
			return
		}
		t.Row(label, h.Count, durStr(h.Quantile(0.5)), durStr(h.Quantile(0.99)), durStr(h.Max))
	}
	for i := 0; i < span.NumStages; i++ {
		st := span.Stage(i)
		row(st.Name(), span.StageHistName(st))
	}
	row("total", span.HistTotal)
	fmt.Fprintln(w, t.String())
}

// gaugeCell renders a gauge or counter cell, distinguishing a missing row
// ("-") from a genuine zero — a server built without some subsystem (no
// residency layer, no engine metrics) must not render as an all-zero row.
func gaugeCell(m map[string]int64, k string) any {
	v, ok := m[k]
	if !ok {
		return "-"
	}
	return v
}

// histQCell renders a histogram quantile, "-" when the histogram is absent.
func histQCell(m map[string]obs.HistSnapshot, k string, q float64) string {
	h, ok := m[k]
	if !ok {
		return "-"
	}
	return durStr(h.Quantile(q))
}

// residentStr renders the per-session residency bit: "yes" (live engine +
// goroutine), "park" (dehydrated to a checkpoint), "-" (a server without the
// idle-dehydration layer, which exposes no resident gauge).
func residentStr(gauges map[string]int64) string {
	v, ok := gauges[obs.GResident]
	switch {
	case !ok:
		return "-"
	case v != 0:
		return "yes"
	default:
		return "park"
	}
}

// durStr renders nanoseconds compactly.
func durStr(ns uint64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// ratioStr renders num/den to two decimals, "-" when den is zero. Used for
// the transforms-per-integrated-op column: with the composed-suffix cache
// warm this sits near 1.00 however deep the bridge is (DESIGN.md §13).
func ratioStr(num, den int64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(num)/float64(den))
}

// pctStr renders num/den as a percentage, "-" when den is zero. Used for the
// composed-cache hit ratio (hits / lookups).
func pctStr(num, den int64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(num)/float64(den))
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
