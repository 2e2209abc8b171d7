package main

import (
	"math/rand"
	"strings"
)

// workload is one closed-loop traffic shape. Every session has `editors`
// replicas: `writers` that the drivers edit through, one observer whose
// connection is tapped, and idle replicas for the rest.
type workload struct {
	name, why string

	sessions int
	editors  int // per session
	writers  int // per session
	docBytes int

	drivers int
	window  int  // edits in flight per driver
	burst   bool // issue a whole window back to back from one writer, then wait for all of it
	hot     bool // every edit lands at len/2 instead of a uniform position

	// churnEvery, when > 0, makes a driver replace one of its sessions' idle
	// editor with a freshly joined one after every churnEvery-th edit.
	churnEvery int

	// opsPerSec sizes a repetition: ops = opsPerSec × seconds ÷ repetitions.
	// The counts are fixed (not "as many as fit") so every run of a seed
	// does identical work and retains identical state.
	opsPerSec int

	// yardNs is the yardstick's nominal reading for this workload's shape:
	// what it takes per frame on the box the workloads were sized on, in the
	// faster of that box's states. A repetition's timings are scaled by
	// yardNs ÷ the reading taken beside them.
	yardNs float64
}

// yardProbe is the yardstick reading that goes with the workload: as many
// frames in flight as the workload has edits.
func (w *workload) yardProbe() yardProbe {
	window := min(w.drivers*w.window, yardQueue/2)
	return yardProbe{chunks: 8, perChunk: max(64, 2*window), window: window}
}

var workloads = []workload{
	{
		name: "pingpong", why: "1 edit in flight through 8 editors: nothing queues, so latency is the sum of the hand-offs",
		sessions: 1, editors: 8, writers: 2, docBytes: 1 << 10,
		drivers: 1, window: 1, opsPerSec: 7000, yardNs: 56000,
	},
	{
		name: "fanout", why: "16 edits in flight to 32 editors: 31 enqueues and socket writes per edit, engine work O(1), idle replicas never ack",
		sessions: 1, editors: 32, writers: 4, docBytes: 1 << 10,
		drivers: 2, window: 8, opsPerSec: 10000, yardNs: 35000,
	},
	{
		name: "sessions_churn", why: "16 sessions of 4 editors on 64 KiB docs with a join every 200 edits: manager, actors and snapshot reads beside writes",
		sessions: 16, editors: 4, writers: 2, docBytes: 64 << 10,
		drivers: 2, window: 4, churnEvery: 200, opsPerSec: 14000, yardNs: 31000,
	},
	{
		name: "conflict", why: "two concurrent 64-edit bursts at one hot spot: transform, compose, pending lists and bridges dominate",
		sessions: 1, editors: 4, writers: 3, docBytes: 1 << 10,
		drivers: 2, window: 64, burst: true, hot: true, opsPerSec: 18000, yardNs: 9000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// posMargin keeps generated positions this far from the end of the replica:
// between reading the length and applying the edit, remote deletes from the
// other in-flight edits (at most 128 here) may shorten it.
const posMargin = 256

// edit is one generated input. The position is a fraction because the
// replica's length at issue time depends on what has been integrated.
type edit struct {
	frac float64
	del  bool // delete instead of insert, honoured only while the replica is longer than the initial document
	text string
}

// plan is everything a run feeds the program: the initial document and one
// edit stream per driver. It is a pure function of (workload, seed, ops);
// the program never sees the seed.
type plan struct {
	doc   string
	edits [][]edit
}

const alphabet = "abcdefghijklmnopqrstuvwxyz"

func makePlan(w *workload, seed int64, ops int) plan {
	rng := rand.New(rand.NewSource(seed))
	var doc strings.Builder
	doc.Grow(w.docBytes)
	for doc.Len() < w.docBytes {
		switch n := rng.Intn(12); {
		case n == 0:
			doc.WriteByte('\n')
		case n < 3:
			doc.WriteByte(' ')
		default:
			doc.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
	}
	p := plan{doc: doc.String(), edits: make([][]edit, w.drivers)}
	for d := range p.edits {
		// One independent stream per driver, so a shorter plan is a prefix
		// of a longer one for the same seed.
		drng := rand.New(rand.NewSource(rng.Int63()))
		n := ops / w.drivers
		if d < ops%w.drivers {
			n++
		}
		p.edits[d] = make([]edit, n)
		for i := range p.edits[d] {
			p.edits[d][i] = edit{
				frac: drng.Float64(),
				del:  drng.Intn(2) == 0,
				text: alphabet[drng.Intn(len(alphabet)):][:1],
			}
		}
	}
	return p
}

// place turns an edit into a concrete position for a replica of length n
// whose document started at initial runes. ok=false cannot happen on the
// shipped workloads (documents are at least 1 KiB); it guards a shrunken doc.
func (w *workload) place(e edit, n, initial int) (pos int, del bool, ok bool) {
	span := n - posMargin
	if span < 1 {
		return 0, false, false
	}
	if w.hot {
		pos = n / 2
	} else {
		pos = int(e.frac * float64(span))
	}
	return pos, e.del && n > initial, true
}
