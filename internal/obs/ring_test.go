package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestRingDisabledByDefault(t *testing.T) {
	r := NewDecisionRing(4)
	if r.Enabled() {
		t.Fatal("ring enabled at birth")
	}
	r.Record(Decision{Site: 1})
	if r.Total() != 0 || r.Dump(0) != nil {
		t.Fatalf("disabled ring accepted a record: total=%d", r.Total())
	}
	var nilRing *DecisionRing
	if nilRing.Enabled() {
		t.Fatal("nil ring claims enabled")
	}
}

func TestRingRecordAndWrap(t *testing.T) {
	r := NewDecisionRing(4)
	r.SetEnabled(true)
	for site := 0; site < 6; site++ {
		r.Record(Decision{Kind: DServerCheck, Site: site})
	}
	if r.Total() != 6 {
		t.Fatalf("total = %d, want 6", r.Total())
	}
	got := r.Dump(0)
	if len(got) != 4 {
		t.Fatalf("retained %d, want 4", len(got))
	}
	for i, d := range got { // oldest first: sites 2,3,4,5 with seq 2..5
		if d.Site != i+2 || d.Seq != uint64(i+2) {
			t.Fatalf("dump[%d] = %+v", i, d)
		}
	}
	if lim := r.Dump(2); len(lim) != 2 || lim[0].Site != 4 || lim[1].Site != 5 {
		t.Fatalf("Dump(2) = %+v", lim)
	}
	r.Reset()
	if r.Total() != 0 || r.Dump(0) != nil {
		t.Fatal("Reset did not clear")
	}
}

func TestRingJSONL(t *testing.T) {
	r := NewDecisionRing(8)
	r.SetEnabled(true)
	r.Record(Decision{Kind: DServerCheck, Session: "docs/a", Site: 2, T1: 9, T2: 3, Index: 1, Concurrent: true})
	r.Record(Decision{Kind: DServerIntegrate, Site: 2, T1: 9, T2: 3, Index: -1, Checks: 2, NConc: 1, Transforms: 1})

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0]["kind"] != "server.check" || lines[0]["session"] != "docs/a" || lines[0]["concurrent"] != true {
		t.Fatalf("line 0 = %v", lines[0])
	}
	if lines[1]["kind"] != "server.integrate" || lines[1]["transforms"] != float64(1) || lines[1]["hb"] != float64(-1) {
		t.Fatalf("line 1 = %v", lines[1])
	}
	if _, ok := lines[1]["session"]; ok {
		t.Fatal("empty session not omitted")
	}
}

func TestRingConcurrent(t *testing.T) {
	r := NewDecisionRing(32)
	r.SetEnabled(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Decision{Kind: DServerCheck, Site: g})
				if i%100 == 0 {
					_ = r.Dump(8)
				}
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 8*500 {
		t.Fatalf("total = %d, want %d", r.Total(), 8*500)
	}
	// Seqs of the retained window are contiguous.
	got := r.Dump(0)
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq+1 {
			t.Fatalf("non-contiguous seqs at %d: %d then %d", i, got[i-1].Seq, got[i].Seq)
		}
	}
}

// TestRingToggleUnderConcurrentWriters flips the ring's enable bit while
// writers hammer Record — the run-mode race detector is the real assertion;
// the invariants checked afterward are that the retained window is still
// contiguous and the total only counts enabled-phase records.
func TestRingToggleUnderConcurrentWriters(t *testing.T) {
	r := NewDecisionRing(64)
	r.SetEnabled(true)
	stop := make(chan struct{})
	togglerDone := make(chan struct{})
	go func() {
		defer close(togglerDone)
		on := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.SetEnabled(on)
			on = !on
		}
	}()
	const writers, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Record(Decision{Kind: DServerCheck, Site: g, Seq: uint64(i)})
				if i%500 == 0 {
					_ = r.Dump(8)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-togglerDone

	if r.Total() > writers*per {
		t.Fatalf("total = %d, more than the %d records offered", r.Total(), writers*per)
	}
	got := r.Dump(0)
	for i := 1; i < len(got); i++ {
		if got[i].Seq < got[i-1].Seq && got[i].Site == got[i-1].Site {
			t.Fatalf("per-writer order lost at %d: %+v then %+v", i, got[i-1], got[i])
		}
	}
	r.SetEnabled(true)
	r.Reset()
	if r.Total() != 0 || len(r.Dump(0)) != 0 {
		t.Fatalf("Reset left total=%d dump=%d", r.Total(), len(r.Dump(0)))
	}
}

func TestDecisionKindString(t *testing.T) {
	for k, want := range map[DecisionKind]string{
		DServerCheck:     "server.check",
		DServerIntegrate: "server.integrate",
		DecisionKind(99): "kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	b, err := json.Marshal(DServerCheck)
	if err != nil || !strings.Contains(string(b), "server.check") {
		t.Fatalf("MarshalJSON = %s, %v", b, err)
	}
}
