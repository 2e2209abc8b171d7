package span

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestFastPathAllocFree pins the hot-path contract: a nil or disabled tracer
// costs no allocations on any recording call, and an enabled tracer whose
// sampler says no allocates nothing either. check.sh gates on this test.
func TestFastPathAllocFree(t *testing.T) {
	ctx := Context{Site: 1, Seq: 2, Flags: FlagSampled}

	var nilT *Tracer
	if n := testing.AllocsPerRun(100, func() {
		nilT.Start(1, 2)
		nilT.Arrival(ctx, 1, 2, 0)
		nilT.Stamp(ctx, StageCheck)
		nilT.StampWrite(ctx)
		nilT.FinishAt(ctx, StageRemoteIntegrate)
	}); n != 0 {
		t.Errorf("nil tracer path allocates %v per run, want 0", n)
	}

	off := NewTracer(nil, Config{SampleEvery: 1})
	off.SetEnabled(false)
	if n := testing.AllocsPerRun(100, func() {
		off.Start(1, 2)
		off.Arrival(ctx, 1, 2, 0)
		off.Stamp(ctx, StageCheck)
		off.StampWrite(ctx)
		off.FinishAt(ctx, StageRemoteIntegrate)
	}); n != 0 {
		t.Errorf("disabled tracer path allocates %v per run, want 0", n)
	}

	// Enabled but sampling 1 in 2^40: every decision in this run is "no".
	rare := NewTracer(nil, Config{SampleEvery: 1 << 40})
	unsampled := Context{}
	if n := testing.AllocsPerRun(100, func() {
		rare.Start(1, 2)
		rare.Arrival(unsampled, 1, 2, 0)
		rare.Stamp(unsampled, StageCheck)
		rare.StampWrite(unsampled)
		rare.FinishAt(unsampled, StageRemoteIntegrate)
	}); n != 0 {
		t.Errorf("unsampled path allocates %v per run, want 0", n)
	}
}

// TestTracerLifecycle walks one sampled op through every stage and checks the
// completed span, the registry counters, and the per-stage histograms.
func TestTracerLifecycle(t *testing.T) {
	reg := obs.NewRegistry("test")
	tr := NewTracer(reg, Config{SampleEvery: 1})

	ctx := tr.Start(3, 7)
	if !ctx.Sampled() {
		t.Fatalf("SampleEvery=1 Start returned unsampled ctx %+v", ctx)
	}
	if ctx.Site != 3 || ctx.Seq != 7 {
		t.Fatalf("ctx identity = %d/%d, want 3/7", ctx.Site, ctx.Seq)
	}
	for _, s := range []Stage{
		StageSendEnqueue, StageDrain, StageEncode, StageWrite,
		StageDecode, StageDequeue, StageCheck, StageTransform,
		StageExecute, StageBcastEnqueue,
	} {
		tr.Stamp(ctx, s)
	}
	if got := tr.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d before finish, want 1", got)
	}
	tr.FinishAt(ctx, StageRemoteIntegrate)

	if got := tr.InFlight(); got != 0 {
		t.Errorf("InFlight = %d after finish, want 0", got)
	}
	if got := tr.Completed(); got != 1 {
		t.Errorf("Completed = %d, want 1", got)
	}
	spans := tr.Spans(0)
	if len(spans) != 1 {
		t.Fatalf("Spans = %d entries, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Site != 3 || sp.Seq != 7 || !sp.Complete {
		t.Errorf("span = %+v, want site 3 seq 7 complete", sp)
	}
	if sp.Stamps[StageGenerate] == 0 || sp.Stamps[StageRemoteIntegrate] == 0 {
		t.Errorf("span missing generate/remote_integrate stamps: %+v", sp.Stamps)
	}
	if sp.Stamps[StagePollWake] != 0 {
		t.Errorf("poll_wake stamped without a wakeNs: %+v", sp.Stamps)
	}
	if sp.Total < 0 {
		t.Errorf("span total = %d, want >= 0", sp.Total)
	}

	snap := reg.Snapshot()
	if snap.Counters[CStarted] != 1 || snap.Counters[CFinished] != 1 || snap.Counters[CEvicted] != 0 {
		t.Errorf("counters = started %d finished %d evicted %d, want 1/1/0",
			snap.Counters[CStarted], snap.Counters[CFinished], snap.Counters[CEvicted])
	}
	if h := snap.Hists[HistTotal]; h.Count != 1 {
		t.Errorf("%s count = %d, want 1", HistTotal, h.Count)
	}
	// Every stamped stage after the anchoring generate recorded one delta.
	for s := StageSendEnqueue; s <= StageRemoteIntegrate; s++ {
		if s == StagePollWake {
			continue
		}
		if h := snap.Hists[StageHistName(s)]; h.Count != 1 {
			t.Errorf("%s count = %d, want 1", StageHistName(s), h.Count)
		}
	}
	// The anchor records no delta.
	if h := snap.Hists[StageHistName(StageGenerate)]; h.Count != 0 {
		t.Errorf("generate stage recorded %d deltas, want 0 (anchor)", h.Count)
	}
}

// TestTracerAdoption checks the wire-propagation path: an adopt-only tracer
// (SampleEvery 0) never originates spans but materializes a record for a
// context that arrived sampled, including the poller wake stamp.
func TestTracerAdoption(t *testing.T) {
	reg := obs.NewRegistry("test")
	tr := NewTracer(reg, Config{SampleEvery: 0})

	if ctx := tr.Start(1, 1); ctx.Sampled() {
		t.Fatalf("adopt-only tracer originated a span: %+v", ctx)
	}
	if ctx := tr.Arrival(Context{}, 1, 2, 0); ctx.Sampled() {
		t.Fatalf("adopt-only tracer sampled an untraced arrival: %+v", ctx)
	}

	wire := Context{Site: 5, Seq: 9, Flags: FlagSampled}
	wake := Now()
	ctx := tr.Arrival(wire, 5, 9, wake)
	if !ctx.Sampled() {
		t.Fatalf("sampled wire context not adopted")
	}
	tr.FinishAt(ctx, StageRemoteIntegrate)
	spans := tr.Spans(0)
	if len(spans) != 1 {
		t.Fatalf("Spans = %d entries, want 1", len(spans))
	}
	if spans[0].Stamps[StagePollWake] != wake {
		t.Errorf("poll_wake stamp = %d, want %d", spans[0].Stamps[StagePollWake], wake)
	}
	if spans[0].Stamps[StageDecode] == 0 {
		t.Errorf("decode not stamped on adoption: %+v", spans[0].Stamps)
	}
}

// TestTracerFinishOnWrite checks the server-only mode: the TCP write stamp
// completes the span because no traced editor exists to close the loop.
func TestTracerFinishOnWrite(t *testing.T) {
	tr := NewTracer(nil, Config{SampleEvery: 1, FinishOnWrite: true})
	ctx := tr.Arrival(Context{}, 2, 4, 0)
	if !ctx.Sampled() {
		t.Fatalf("arrival not sampled with SampleEvery=1")
	}
	tr.Stamp(ctx, StageCheck)
	tr.StampWrite(ctx)
	if got := tr.Completed(); got != 1 {
		t.Fatalf("Completed = %d after StampWrite, want 1", got)
	}
	if got := tr.InFlight(); got != 0 {
		t.Errorf("InFlight = %d, want 0", got)
	}
	if sp := tr.Spans(1)[0]; !sp.Complete || sp.Stamps[StageWrite] == 0 {
		t.Errorf("span = %+v, want complete with a write stamp", sp)
	}
}

// TestFinishWaitsForOpenServerLeg pins the multi-core ordering: the session
// actor stamps bcast_enqueue after the senders have the broadcast, so a
// destination's finishing stamp can come first. The finish must then hold
// the record for the actor's closing stamp — which completes it — instead of
// retiring it and letting that stamp vanish.
func TestFinishWaitsForOpenServerLeg(t *testing.T) {
	for _, mode := range []struct {
		name   string
		cfg    Config
		finish func(*Tracer, Context)
		stage  Stage
	}{
		{"remote integrate", Config{SampleEvery: 1}, func(tr *Tracer, c Context) { tr.FinishAt(c, StageRemoteIntegrate) }, StageRemoteIntegrate},
		{"finish on write", Config{SampleEvery: 1, FinishOnWrite: true}, func(tr *Tracer, c Context) { tr.StampWrite(c) }, StageWrite},
	} {
		t.Run(mode.name, func(t *testing.T) {
			reg := obs.NewRegistry("test")
			tr := NewTracer(reg, mode.cfg)
			ctx := tr.Arrival(Context{}, 3, 9, 0)
			tr.Stamp(ctx, StageDequeue)
			tr.Stamp(ctx, StageExecute)
			mode.finish(tr, ctx) // a destination got there before the actor
			if tr.Completed() != 0 || tr.InFlight() != 1 {
				t.Fatalf("finish retired a span whose server leg is open: completed %d, in flight %d",
					tr.Completed(), tr.InFlight())
			}
			tr.Stamp(ctx, StageBcastEnqueue)
			if tr.Completed() != 1 || tr.InFlight() != 0 {
				t.Fatalf("closing stamp did not complete the span: completed %d, in flight %d",
					tr.Completed(), tr.InFlight())
			}
			sp := tr.Spans(1)[0]
			if !sp.Complete || sp.Stamps[StageBcastEnqueue] == 0 || sp.Stamps[mode.stage] == 0 {
				t.Fatalf("span = %+v, want complete with both stamps", sp)
			}
			snap := reg.Snapshot()
			if snap.Hists[StageHistName(StageBcastEnqueue)].Count != 1 || snap.Hists[HistTotal].Count != 1 {
				t.Fatalf("bcast_enqueue deltas %d, totals %d, want 1 and 1",
					snap.Hists[StageHistName(StageBcastEnqueue)].Count, snap.Hists[HistTotal].Count)
			}

			// In actor-first order nothing waits.
			ctx = tr.Arrival(Context{}, 3, 10, 0)
			tr.Stamp(ctx, StageDequeue)
			tr.Stamp(ctx, StageBcastEnqueue)
			mode.finish(tr, ctx)
			if tr.Completed() != 2 || tr.InFlight() != 0 {
				t.Fatalf("finish after a closed server leg: completed %d, in flight %d", tr.Completed(), tr.InFlight())
			}
		})
	}
}

// TestTracerFirstWins checks fan-out idempotence: a second stamp of the same
// stage (every broadcast leg stamps drain/encode/write) is a no-op.
func TestTracerFirstWins(t *testing.T) {
	reg := obs.NewRegistry("test")
	tr := NewTracer(reg, Config{SampleEvery: 1})
	ctx := tr.Start(1, 1)
	tr.Stamp(ctx, StageDrain)
	tr.Stamp(ctx, StageDrain)
	tr.Stamp(ctx, StageDrain)
	if h := reg.Snapshot().Hists[StageHistName(StageDrain)]; h.Count != 1 {
		t.Errorf("drain recorded %d deltas after 3 stamps, want 1", h.Count)
	}
}

// TestTracerEviction fills the active table past MaxActive and checks the
// victim lands in the ring incomplete, counted by spans.evicted.
func TestTracerEviction(t *testing.T) {
	reg := obs.NewRegistry("test")
	tr := NewTracer(reg, Config{SampleEvery: 1, MaxActive: 2})
	tr.Start(1, 1)
	tr.Start(1, 2)
	tr.Start(1, 3) // evicts one of the first two
	if got := tr.InFlight(); got != 2 {
		t.Errorf("InFlight = %d, want 2 (MaxActive)", got)
	}
	if got := reg.Snapshot().Counters[CEvicted]; got != 1 {
		t.Errorf("%s = %d, want 1", CEvicted, got)
	}
	spans := tr.Spans(0)
	if len(spans) != 1 || spans[0].Complete {
		t.Errorf("evicted span = %+v, want exactly one incomplete entry", spans)
	}
}

// TestSpansRingNewestFirst finishes more spans than the ring holds and checks
// retention (newest RingCap) and ordering (newest first).
func TestSpansRingNewestFirst(t *testing.T) {
	tr := NewTracer(nil, Config{SampleEvery: 1, RingCap: 4})
	for seq := uint64(1); seq <= 6; seq++ {
		ctx := tr.Start(1, seq)
		tr.FinishAt(ctx, StageRemoteIntegrate)
	}
	spans := tr.Spans(0)
	if len(spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(spans))
	}
	for i, want := range []uint64{6, 5, 4, 3} {
		if spans[i].Seq != want {
			t.Errorf("spans[%d].Seq = %d, want %d", i, spans[i].Seq, want)
		}
	}
	if got := tr.Spans(2); len(got) != 2 || got[0].Seq != 6 {
		t.Errorf("Spans(2) = %+v, want newest 2", got)
	}
	if got := tr.Completed(); got != 6 {
		t.Errorf("Completed = %d, want 6", got)
	}
}

// TestHandler drives /spanz in both formats.
func TestHandler(t *testing.T) {
	tr := NewTracer(nil, Config{SampleEvery: 1})
	ctx := tr.Start(2, 11)
	tr.Stamp(ctx, StageCheck)
	tr.FinishAt(ctx, StageRemoteIntegrate)

	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	body := httpGet(t, srv.URL)
	for _, want := range []string{"1 spans", "site", "total_us", "generate", "remote_integrate", "true"} {
		if !strings.Contains(body, want) {
			t.Errorf("/spanz text missing %q:\n%s", want, body)
		}
	}

	jl := httpGet(t, srv.URL+"?format=jsonl")
	sc := bufio.NewScanner(strings.NewReader(jl))
	lines := 0
	for sc.Scan() {
		lines++
		var v struct {
			Site     int              `json:"site"`
			Seq      uint64           `json:"seq"`
			Complete bool             `json:"complete"`
			Stages   map[string]int64 `json:"stages"`
		}
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("bad jsonl line %q: %v", sc.Text(), err)
		}
		if v.Site != 2 || v.Seq != 11 || !v.Complete {
			t.Errorf("jsonl span = %+v, want site 2 seq 11 complete", v)
		}
		if v.Stages["generate"] == 0 || v.Stages["check"] == 0 {
			t.Errorf("jsonl stages missing stamps: %+v", v.Stages)
		}
	}
	if lines != 1 {
		t.Errorf("jsonl lines = %d, want 1", lines)
	}
}

// TestStageNames pins the stage catalogue: names, order, and histogram keys.
func TestStageNames(t *testing.T) {
	want := []string{
		"generate", "send_enqueue", "drain", "encode", "write",
		"poll_wake", "decode", "dequeue", "check", "transform",
		"execute", "bcast_enqueue", "remote_integrate",
	}
	if NumStages != len(want) {
		t.Fatalf("NumStages = %d, want %d", NumStages, len(want))
	}
	for i, w := range want {
		if got := Stage(i).Name(); got != w {
			t.Errorf("Stage(%d).Name = %q, want %q", i, got, w)
		}
		if got := StageHistName(Stage(i)); got != HistStagePrefix+w {
			t.Errorf("StageHistName(%d) = %q, want %q", i, got, HistStagePrefix+w)
		}
	}
}
