package core

import (
	"testing"

	"repro/internal/obs"
)

func TestEngineMetrics(t *testing.T) {
	sm := obs.NewRegistry("")
	srv := NewServer("", WithServerCompaction(0), WithServerMetrics(sm))
	clients := map[int]*Client{}
	for site := 1; site <= 2; site++ {
		snap, err := srv.Join(site)
		if err != nil {
			t.Fatal(err)
		}
		clients[site] = NewClient(site, snap.Text, WithClientCompaction(0))
	}

	// Two concurrent ops: each transforms against the other somewhere.
	m1, _ := clients[1].Insert(0, "a")
	m2, _ := clients[2].Insert(0, "b")
	b1, _, err := srv.Receive(m1)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := srv.Receive(m2)
	if err != nil {
		t.Fatal(err)
	}
	for _, bm := range append(b1, b2...) {
		if _, err := clients[bm.To].Integrate(bm); err != nil {
			t.Fatal(err)
		}
	}

	if got := sm.Counter(COpsIntegrated).Load(); got != 2 {
		t.Fatalf("server ops: %d", got)
	}
	// m2 was concurrent with m1 at the server: one transform.
	if got := sm.Counter(CTransforms).Load(); got != 1 {
		t.Fatalf("transforms counted: %d", got)
	}
	if got := sm.Counter(CConcurrencyChecks).Load(); got != 1 {
		t.Fatalf("server checks: %d", got)
	}
	if got := sm.Counter(CConcurrentPairs).Load(); got != 1 {
		t.Fatalf("server concurrent pairs: %d", got)
	}
}
