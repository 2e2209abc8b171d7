package main

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/doc"
	"repro/internal/op"
	"repro/internal/server"
	"repro/internal/wire"
)

const (
	stepOps       = 3072 // edits replayed per pass, at most
	stepJoinEvery = 200  // a join is timed after every this many edits
	lookupBatch   = 1024 // Manager.Get calls per timed batch
)

// engine is the notifier side the stepper replays into: the bare core.Server
// in the first pass, the same engine behind a server.Session actor in the
// second. Their difference is the actor hop.
type engine interface {
	join(site int) error
	leave(site int) error
	receive(m core.ClientMsg) ([]core.ServerMsg, core.IntegrationResult, error)
}

type coreEngine struct{ srv *core.Server }

func (e coreEngine) join(site int) error  { _, err := e.srv.Join(site); return err }
func (e coreEngine) leave(site int) error { return e.srv.Leave(site) }
func (e coreEngine) receive(m core.ClientMsg) ([]core.ServerMsg, core.IntegrationResult, error) {
	return e.srv.Receive(m)
}

// sessionEngine drives a server.Session through in-process Subscribers. The
// hooks run on the session goroutine, but Receive returns only after they
// have, so out is never touched concurrently.
type sessionEngine struct {
	sess *server.Session
	out  []core.ServerMsg
}

func (e *sessionEngine) join(site int) error {
	_, err := e.sess.Join(site, server.Subscriber{Deliver: func(m core.ServerMsg) { e.out = append(e.out, m) }})
	return err
}
func (e *sessionEngine) leave(site int) error { return e.sess.Leave(site) }
func (e *sessionEngine) receive(m core.ClientMsg) ([]core.ServerMsg, core.IntegrationResult, error) {
	e.out = e.out[:0]
	err := e.sess.Receive(m)
	return e.out, core.IntegrationResult{}, err
}

// stepTally collects one pass: per-call samples by metric name (timings and
// allocation counts, reported as p50) and exact counters, which repeat
// exactly for a given plan.
type stepTally struct {
	obs  map[string][]int64
	sum  map[string]float64
	ops  int // edits received by the engine
	ints int // integrations at writer replicas
}

func (t *stepTally) time(name string, start int64) { t.obs[name] = append(t.obs[name], now()-start) }

// allocProbe counts the heap objects one call allocates. ReadMemStats stops
// the world and flushes every allocation cache, which is what makes a delta
// around a single call exact (the runtime/metrics counters lag by a cache's
// worth) — and too slow to put around every call, so only every
// allocEvery-th edit of the bare pass is probed. The reported count is the
// median over the probed calls: the counter is process-wide, and a median
// shrugs off the rare call that coincides with the runtime's own allocating.
type allocProbe struct {
	on     bool
	before uint64
}

const allocEvery = 8

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func (a *allocProbe) begin() {
	if a.on {
		a.before = mallocs()
	}
}

func (a *allocProbe) end(t *stepTally, name string) {
	if a.on {
		t.obs[name] = append(t.obs[name], int64(mallocs()-a.before))
	}
}

// step replays the workload's edit stream single-threaded through the public
// functions of each layer, under a fixed delivery schedule: each round the
// writers generate their share of the in-flight edits before anything is
// delivered, the notifier receives them round-robin over the writers, and
// every broadcast is integrated at once. It fills m with the stepper's
// per-layer metrics.
func step(w *workload, p plan, m map[string]float64) error {
	var edits []edit
	for _, es := range p.edits {
		edits = append(edits, es...)
	}
	edits = edits[:min(stepOps, len(edits))]

	bare, err := stepPass(w, p.doc, edits, coreEngine{core.NewServer(p.doc)})
	if err != nil {
		return err
	}
	mgr := server.NewManager(server.WithInitialText(p.doc))
	defer func() { _ = mgr.Close() }()
	names := make([]string, w.sessions)
	for i := range names {
		names[i] = fmt.Sprintf("doc%02d", i)
		if _, err := mgr.GetOrCreate(names[i]); err != nil {
			return err
		}
	}
	sess, err := mgr.GetOrCreate(names[0])
	if err != nil {
		return err
	}
	acted, err := stepPass(w, p.doc, edits, &sessionEngine{sess: sess})
	if err != nil {
		return err
	}

	for name, xs := range bare.obs {
		m[name] = p50(xs)
	}
	m["server.session_receive_ns"] = p50(acted.obs["core.server_receive_ns"])
	m["server.session_join_ns"] = p50(acted.obs["core.server_join_ns"])
	m["server.actor_hop_ns"] = m["server.session_receive_ns"] - m["core.server_receive_ns"]
	ops, ints := float64(bare.ops), float64(max(1, bare.ints))
	m["core.server_transforms_per_op"] = bare.sum["server_transforms"] / ops
	m["core.server_concurrent_per_op"] = bare.sum["server_concurrent"] / ops
	m["core.server_bridge_depth"] = bare.sum["bridge_depth"] / ops
	m["core.server_hb_len"] = bare.sum["hb_len"]
	m["core.client_transforms_per_op"] = bare.sum["client_transforms"] / ints
	m["core.client_pending_depth"] = bare.sum["pending_depth"] / ints
	m["wire.clientop_bytes"] = bare.sum["clientop_bytes"] / ops
	m["wire.serverop_bytes"] = bare.sum["serverop_bytes"] / ops
	m["wire.ts_bytes"] = bare.sum["ts_bytes"] / ops

	var batches []int64
	for b := 0; b < 64; b++ {
		start := now()
		for i := 0; i < lookupBatch; i++ {
			if _, ok := mgr.Get(names[i%len(names)]); !ok {
				return fmt.Errorf("manager lost session %s", names[i%len(names)])
			}
		}
		batches = append(batches, now()-start)
	}
	m["server.manager_lookup_ns"] = p50(batches) / lookupBatch
	return nil
}

func stepPass(w *workload, text string, edits []edit, eng engine) (*stepTally, error) {
	srv, bare := eng.(coreEngine)
	t := &stepTally{obs: map[string][]int64{}, sum: map[string]float64{}}

	// Sites: writers 1..W, the observer W+1, then the idle replicas, which
	// exist at the notifier only — they would repeat the observer's work.
	replicas := make([]*core.Client, w.writers+1)
	for i := range replicas {
		replicas[i] = core.NewClient(i+1, text)
	}
	for site := 1; site <= w.editors; site++ {
		if err := eng.join(site); err != nil {
			return nil, err
		}
	}
	idle, nextSite := w.editors, w.editors+1
	rope := doc.NewRope(text)
	var frame, body []byte
	var err error

	inflight := max(1, w.drivers*w.window/w.sessions)
	for round, next := 0, 0; next < len(edits); round++ {
		// Generate: every edit of the round exists before any is delivered.
		queues := make([][]core.ClientMsg, w.writers)
		for k := 0; k < inflight && next < len(edits); k, next = k+1, next+1 {
			wi := (round*inflight + k) % w.writers
			if w.burst {
				wi = (round*w.drivers + k/w.window) % w.writers
			}
			c := replicas[wi]
			pos, del, ok := w.place(edits[next], c.DocLen(), len(text))
			if !ok {
				return nil, fmt.Errorf("stepper: replica of site %d too short to edit", wi+1)
			}
			start := now()
			o, err := buildOp(c.DocLen(), pos, del, edits[next].text)
			t.time("op.build_ns", start)
			if err != nil {
				return nil, err
			}
			if k == 0 {
				if err := timeOpAlgebra(t, o, pos, edits[next].text); err != nil {
					return nil, err
				}
			}
			start = now()
			msg, err := c.Generate(o)
			t.time("core.client_generate_ns", start)
			if err != nil {
				return nil, err
			}
			queues[wi] = append(queues[wi], msg)
		}

		// Deliver: round-robin over the writers' queues.
		for rank := 0; ; rank++ {
			more := false
			for wi := range queues {
				if rank >= len(queues[wi]) {
					continue
				}
				more = true
				msg := queues[wi][rank]

				start := now()
				frame, err = wire.AppendFrame(frame[:0], wire.ClientOp{From: msg.From, TS: msg.TS, Ref: msg.Ref, Op: msg.Op})
				t.time("wire.clientop_encode_ns", start)
				if err != nil {
					return nil, err
				}
				t.sum["clientop_bytes"] += float64(len(frame))
				_, k := binary.Uvarint(frame)
				start = now()
				dec, err := wire.Decode(frame[k:])
				t.time("wire.clientop_decode_ns", start)
				if err != nil {
					return nil, err
				}
				in, ok := dec.(wire.ClientOp)
				if !ok {
					return nil, fmt.Errorf("stepper: ClientOp decoded as %T", dec)
				}

				if bare {
					t.sum["bridge_depth"] += float64(srv.srv.BridgeLen(in.From))
				}
				probe := allocProbe{on: bare && t.ops%allocEvery == 0}
				probe.begin()
				start = now()
				bcast, res, err := eng.receive(core.ClientMsg{From: in.From, Op: in.Op, TS: in.TS, Ref: in.Ref})
				t.time("core.server_receive_ns", start)
				probe.end(t, "core.server_receive_allocs")
				if err != nil {
					return nil, err
				}
				t.ops++
				t.sum["server_transforms"] += float64(res.Transforms)
				t.sum["server_concurrent"] += float64(res.ConcurrentCount)
				if res.Executed != nil {
					start = now()
					err := doc.Apply(rope, res.Executed)
					t.time("doc.rope_apply_ns", start)
					if err != nil {
						return nil, err
					}
				}
				if len(bcast) == 0 {
					continue
				}

				// Encode once, then one frame per destination, as the
				// per-connection senders do for an uncoalesced op.
				start = now()
				bc, err := wire.NewBroadcast(bcast[0].Ref, bcast[0].OrigRef, bcast[0].Op)
				if err != nil {
					return nil, err
				}
				for _, bm := range bcast {
					body = wire.AppendFrames(body[:0], []wire.FrameItem{{B: bc, To: bm.To, TS: bm.TS}})
					if bm.To == w.writers+1 {
						frame = append(frame[:0], body...)
					}
				}
				bc.Release()
				t.time("wire.broadcast_encode_ns", start)

				t.sum["serverop_bytes"] += float64(len(frame))
				_, k = binary.Uvarint(frame)
				start = now()
				_, err = wire.Decode(frame[k:])
				t.time("wire.serverop_decode_ns", start)
				if err != nil {
					return nil, err
				}

				for _, bm := range bcast {
					if bm.To > len(replicas) {
						continue // an idle replica
					}
					c := replicas[bm.To-1]
					if bm.To <= w.writers {
						t.ints++
						t.sum["pending_depth"] += float64(c.PendingCount())
					} else {
						t.sum["ts_bytes"] += float64(wire.TimestampSize(bm.TS))
					}
					probe.begin()
					start = now()
					ires, err := c.Integrate(bm)
					t.time("core.client_integrate_ns", start)
					probe.end(t, "core.client_integrate_allocs")
					if err != nil {
						return nil, err
					}
					if bm.To <= w.writers {
						t.sum["client_transforms"] += float64(ires.Transforms)
					}
				}

				if t.ops%stepJoinEvery == 0 {
					// A newcomer reads the whole document. Under churn it
					// replaces the idle replica, as the live workload does;
					// elsewhere it leaves again at once.
					if w.churnEvery > 0 {
						if err := eng.leave(idle); err != nil {
							return nil, err
						}
						idle = nextSite
					}
					start = now()
					err := eng.join(nextSite)
					t.time("core.server_join_ns", start)
					if err != nil {
						return nil, err
					}
					if w.churnEvery == 0 {
						if err := eng.leave(nextSite); err != nil {
							return nil, err
						}
					}
					nextSite++
					start = now()
					s := rope.String()
					t.time("doc.rope_string_ns", start)
					if bare && s != srv.srv.Text() {
						return nil, fmt.Errorf("stepper: rope diverged from the notifier after %d edits", t.ops)
					}
				}
			}
			if !more {
				break
			}
		}
	}
	if bare {
		t.sum["hb_len"] = float64(srv.srv.History().Len())
		want := srv.srv.Text()
		for i, c := range replicas {
			if c.Text() != want {
				return nil, fmt.Errorf("stepper: site %d diverged from the notifier", i+1)
			}
		}
	}
	return t, nil
}

func buildOp(n, pos int, del bool, text string) (*op.Op, error) {
	if del {
		return op.NewDelete(n, pos, 1)
	}
	return op.NewInsert(n, pos, text)
}

// timeOpAlgebra times Transform against a sibling edit on the same base and
// Compose with a successor edit, both built from o's own inputs.
func timeOpAlgebra(t *stepTally, o *op.Op, pos int, text string) error {
	sibling, err := op.NewInsert(o.BaseLen(), pos/2, text)
	if err != nil {
		return err
	}
	start := now()
	_, _, err = op.Transform(o, sibling)
	t.time("op.transform_ns", start)
	if err != nil {
		return err
	}
	successor, err := op.NewInsert(o.TargetLen(), pos/2, text)
	if err != nil {
		return err
	}
	start = now()
	_, err = op.Compose(o, successor)
	t.time("op.compose_ns", start)
	return err
}
