package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"time"
)

// yardstick is a fixed miniature of the system under test, written against
// the standard library alone, that a repetition runs between the slices of
// its measured phase to read how fast the host is at that moment.
//
// The host is a shared virtual machine whose memory and kernel paths speed up
// and slow down by 10–40 % for minutes at a time while a compute loop that
// stays in the first-level cache does not move by 1 %. Every timing of the
// system moves with those steps, and no amount of repeating inside one run
// averages them out: the run is shorter than a step. The yardstick is made
// of the same ingredients as the notifier — loopback TCP, the netpoller,
// goroutine hand-offs through channels, cache-missing memory reads, small
// allocations — in a fixed blend that never changes with the program, so it
// slows down when the host does and only then. A repetition's timings are
// scaled by nominal ÷ measured yardstick time (see repResult.readings): they
// read as "µs at the host speed at which the yardstick takes its nominal
// time". A change to the program moves the system and not the yardstick, so
// it shows in full.
//
// Shape: hubs × conns loopback connections. A frame written on a client
// connection is read by that connection's relay reader, handed to its hub,
// which chases yardChase pointers through a yardArena-cell table, allocates a
// record it keeps for a while, and queues the frame to the writer goroutine
// of each of the hub's connections; the hub's last client is its observer and
// hands the probe a token per frame.
type yardstick struct {
	ln      net.Listener
	hubs    []*yardHub
	tokens  chan struct{}
	wg      sync.WaitGroup
	closing sync.Once
}

const (
	yardFrame = 32      // bytes per frame, about an encoded 1-rune ServerOp
	yardArena = 4 << 20 // int32 cells in the pointer-chase table: 16 MiB, beyond the last-level cache share
	yardChase = 48      // dependent loads per frame at the hub
	yardKeep  = 4096    // records a hub retains before it overwrites the oldest
	yardQueue = 256     // per-connection queue; a probe keeps far fewer frames in flight
)

type yardFrameT [yardFrame]byte

type yardHub struct {
	in      chan yardFrameT
	outs    []chan yardFrameT // relay → client, one per connection
	clients []net.Conn        // client ends
	arena   []int32
	at      int32
	kept    [][]byte
	n       int
}

// newYardstick builds hubs independent relays of conns connections each.
func newYardstick(hubs, conns int) (*yardstick, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	y := &yardstick{ln: ln, tokens: make(chan struct{}, yardQueue)}
	// One cycle through every cell in a fixed pseudo-random order (Sattolo's
	// shuffle), so each load depends on the one before and misses the caches.
	rng := rand.New(rand.NewSource(1))
	arena := make([]int32, yardArena)
	for i := range arena {
		arena[i] = int32(i)
	}
	for i := len(arena) - 1; i > 0; i-- {
		j := rng.Intn(i)
		arena[i], arena[j] = arena[j], arena[i]
	}
	// Every connection first, so that a failure leaves no goroutine behind.
	var relays []net.Conn
	for h := 0; h < hubs; h++ {
		hub := &yardHub{in: make(chan yardFrameT, yardQueue), arena: arena, at: int32(h * 4099), kept: make([][]byte, yardKeep)}
		y.hubs = append(y.hubs, hub)
		for c := 0; c < conns; c++ {
			client, err := net.Dial("tcp", ln.Addr().String())
			if err == nil {
				hub.clients = append(hub.clients, client)
				var relay net.Conn
				if relay, err = ln.Accept(); err == nil {
					relays = append(relays, relay)
					continue
				}
			}
			for _, relay := range relays {
				_ = relay.Close()
			}
			y.close()
			return nil, fmt.Errorf("yardstick: %w", err)
		}
	}
	for h, hub := range y.hubs {
		var relayReaders sync.WaitGroup
		for c, client := range hub.clients {
			relay := relays[h*conns+c]
			out := make(chan yardFrameT, yardQueue)
			hub.outs = append(hub.outs, out)
			observer := c == conns-1
			relayReaders.Add(1)
			y.wg.Add(3)
			go func() { // relay reader: client → hub
				defer y.wg.Done()
				defer relayReaders.Done()
				var f yardFrameT
				for {
					if _, err := io.ReadFull(relay, f[:]); err != nil {
						return
					}
					hub.in <- f
				}
			}()
			go func() { // relay writer: hub → client, coalescing what has queued
				defer y.wg.Done()
				defer relay.Close()
				buf := make([]byte, 0, 16*yardFrame)
				for f := range out {
					buf = append(buf[:0], f[:]...)
					for more := true; more && len(buf) < cap(buf); {
						select {
						case f, ok := <-out:
							if ok {
								buf = append(buf, f[:]...)
							}
							more = ok
						default:
							more = false
						}
					}
					if _, err := relay.Write(buf); err != nil {
						for range out { // keep the hub from blocking on a dead connection
						}
						return
					}
				}
			}()
			go func() { // client reader
				defer y.wg.Done()
				var f yardFrameT
				for {
					if _, err := io.ReadFull(client, f[:]); err != nil {
						return
					}
					// What decoding a frame leaves behind; the size is not a
					// constant so that it is a heap allocation.
					rec := make([]byte, 48+int(f[0]&15))
					copy(rec, f[:])
					if observer {
						y.tokens <- struct{}{}
					}
				}
			}()
		}
		y.wg.Add(2)
		go func() { // every relay reader of the hub has gone: stop the hub
			defer y.wg.Done()
			relayReaders.Wait()
			close(hub.in)
		}()
		go func() {
			defer y.wg.Done()
			hub.run()
		}()
	}
	return y, nil
}

func (h *yardHub) run() {
	for f := range h.in {
		at := h.at
		for i := 0; i < yardChase; i++ {
			at = h.arena[at]
		}
		h.at = at
		rec := make([]byte, 96+int(at&63))
		copy(rec, f[:])
		h.kept[h.n%yardKeep] = rec
		h.n++
		for _, out := range h.outs {
			out <- f
		}
	}
	for _, out := range h.outs {
		close(out)
	}
}

// yardProbe sizes one reading of the yardstick.
type yardProbe struct {
	chunks, perChunk int
	window           int // frames in flight
}

// read pushes chunks × perChunk frames through the yardstick with window of
// them in flight, spread round-robin over the hubs, and returns the median
// chunk's time per frame in ns: a stall of the host that lands in one chunk
// does not move it.
func (y *yardstick) read(p yardProbe) (float64, error) {
	var f yardFrameT
	times := make([]int64, 0, p.chunks)
	sent, inflight := 0, 0
	send := func() error {
		hub := y.hubs[sent%len(y.hubs)]
		// Every client but the observer writes in turn.
		c := hub.clients[(sent/len(y.hubs))%max(1, len(hub.clients)-1)]
		sent++
		inflight++
		_, err := c.Write(f[:])
		return err
	}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for c := 0; c < p.chunks; c++ {
		start := now()
		for i := 0; i < p.perChunk; i++ {
			if inflight == p.window {
				select {
				case <-y.tokens:
					inflight--
				case <-timeout.C:
					return 0, fmt.Errorf("yardstick: no frame came back within 10s")
				}
			}
			if err := send(); err != nil {
				return 0, fmt.Errorf("yardstick: %w", err)
			}
		}
		for ; inflight > 0; inflight-- {
			select {
			case <-y.tokens:
			case <-timeout.C:
				return 0, fmt.Errorf("yardstick: no frame came back within 10s")
			}
		}
		times = append(times, now()-start)
	}
	slices.Sort(times)
	return quantile(times, 0.5) / float64(p.perChunk), nil
}

// close tears the yardstick down and waits for its goroutines.
func (y *yardstick) close() {
	y.closing.Do(func() {
		_ = y.ln.Close()
		for _, hub := range y.hubs {
			for _, c := range hub.clients {
				_ = c.Close()
			}
		}
		y.wg.Wait()
	})
}
