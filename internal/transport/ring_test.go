package transport

import "testing"

// TestWorkRingDirect exercises the ready ring without a pool: items leave in
// push order across buffer growth, push reports the depth it left behind,
// and close refuses new pushes while the items already queued still drain
// before next reports the ring finished.
func TestWorkRingDirect(t *testing.T) {
	r := newWorkRing[int]()
	for i := 1; i <= 20; i++ { // past the initial 8 slots: one doubling, twice
		depth, ok := r.push(i)
		if !ok || depth != i {
			t.Fatalf("push(%d) = depth %d, %v; want %d, true", i, depth, ok, i)
		}
	}
	for i := 1; i <= 10; i++ {
		if v, ok := r.next(); !ok || v != i {
			t.Fatalf("next = %d, %v; want %d", v, ok, i)
		}
	}
	r.close()
	if _, ok := r.push(99); ok {
		t.Error("push to closed ring reported ok")
	}
	if got := r.queued(); got != 10 {
		t.Errorf("queued after close = %d, want the 10 still waiting", got)
	}
	for i := 11; i <= 20; i++ {
		if v, ok := r.next(); !ok || v != i {
			t.Fatalf("next after close = %d, %v; want %d", v, ok, i)
		}
	}
	if _, ok := r.next(); ok {
		t.Error("next on closed drained ring reported ok")
	}
}

// TestWorkRingShardsOneIdentity holds the pooled writers, which share one
// ready ring among three workers, to the dedicated writer's observable
// behavior: the same enqueue schedule produces the identical delivered
// sequence. This is the ring's differential gate.
func TestWorkRingShardsOneIdentity(t *testing.T) {
	const n = 300
	run := func(mk func(Conn) *Sender) []string {
		a, b := Pipe(n + 16)
		s := mk(a)
		driveSchedule(t, s, n)
		return collectTokens(t, b, n)
	}
	dedicated := run(func(c Conn) *Sender { return NewSender(c, nil) })
	pool := NewWriterPool(3)
	defer pool.Close()
	pooled := run(func(c Conn) *Sender { return NewPooledSender(c, nil, pool) })
	if len(dedicated) != len(pooled) {
		t.Fatalf("dedicated delivered %d tokens, pooled %d", len(dedicated), len(pooled))
	}
	for i := range dedicated {
		if dedicated[i] != pooled[i] {
			t.Fatalf("token %d: dedicated %q, pooled %q", i, dedicated[i], pooled[i])
		}
	}
}
