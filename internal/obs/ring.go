package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// DecisionKind tags a causality-decision trace record.
type DecisionKind uint8

// Decision kinds: the notifier's per-entry formula-(7) verdicts and
// per-arrival summaries.
const (
	// DServerCheck is one server formula-(7) verdict against one
	// history-buffer entry.
	DServerCheck DecisionKind = iota + 1
	// DServerIntegrate summarizes one server Receive: checks run,
	// concurrent entries found, transformations performed.
	DServerIntegrate
)

// String names the kind (also its JSON encoding).
func (k DecisionKind) String() string {
	switch k {
	case DServerCheck:
		return "server.check"
	case DServerIntegrate:
		return "server.integrate"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind by name.
func (k DecisionKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind name (the ablation replayer reads dumps back).
func (k *DecisionKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for _, cand := range []DecisionKind{DServerCheck, DServerIntegrate} {
		if cand.String() == s {
			*k = cand
			return nil
		}
	}
	return fmt.Errorf("unknown decision kind %q", s)
}

// Decision is one causality-decision trace record: which site's operation,
// under which compressed timestamp, was checked against which history-buffer
// entry, and what the clock concluded. Summary records (D*Integrate) carry
// Index -1 and fill Checks/NConcurrent/Transforms instead — together they
// are the forensic record the §6 misclassification ablation replays.
type Decision struct {
	Seq     uint64       `json:"seq"`
	Kind    DecisionKind `json:"kind"`
	Session string       `json:"session,omitempty"` // document session ("" = default)
	Site    int          `json:"site"`              // origin site of the arriving operation
	T1      uint64       `json:"t1"`                // arriving compressed timestamp
	T2      uint64       `json:"t2"`

	// Per-check fields (DServerCheck).
	Index      int  `json:"hb"` // history-buffer index checked; -1 in summaries
	Concurrent bool `json:"concurrent"`

	// Summary fields (DServerIntegrate).
	Checks     int `json:"checks,omitempty"`      // entries checked
	NConc      int `json:"nconcurrent,omitempty"` // entries found concurrent
	Transforms int `json:"transforms,omitempty"`  // inclusion transformations performed
}

// DecisionRing is a bounded ring buffer of Decisions behind an atomic enable
// flag. Disabled — the default — its entire cost to a hot path is one atomic
// load (Enabled); enabled, Record takes a short mutex, which is acceptable
// for a forensic facility that is switched on deliberately. Dump and
// WriteJSONL read the ring oldest-first.
type DecisionRing struct {
	enabled atomic.Bool

	mu   sync.Mutex
	buf  []Decision
	next uint64 // total records ever accepted; buf[next % len] is the next slot
}

// DefaultRingCapacity is the trace depth reducesrv allocates.
const DefaultRingCapacity = 4096

// NewDecisionRing returns a ring holding the last capacity decisions
// (DefaultRingCapacity when capacity < 1). The ring starts disabled.
func NewDecisionRing(capacity int) *DecisionRing {
	if capacity < 1 {
		capacity = DefaultRingCapacity
	}
	return &DecisionRing{buf: make([]Decision, capacity)}
}

// Enabled reports whether recording is on — the one check hot paths make.
func (r *DecisionRing) Enabled() bool { return r != nil && r.enabled.Load() }

// SetEnabled switches recording on or off.
func (r *DecisionRing) SetEnabled(on bool) { r.enabled.Store(on) }

// Record appends d (stamping d.Seq) if the ring is enabled; otherwise it is
// a no-op. Callers on hot paths should guard with Enabled() to skip building
// the record at all.
func (r *DecisionRing) Record(d Decision) {
	if !r.Enabled() {
		return
	}
	r.mu.Lock()
	d.Seq = r.next
	r.buf[r.next%uint64(len(r.buf))] = d
	r.next++
	r.mu.Unlock()
}

// Total returns how many decisions have ever been recorded (including those
// the ring has since overwritten).
func (r *DecisionRing) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Dump copies out the most recent decisions, oldest first. limit <= 0 means
// everything retained.
func (r *DecisionRing) Dump(limit int) []Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	retained := uint64(len(r.buf))
	if n < retained {
		retained = n
	}
	if limit > 0 && uint64(limit) < retained {
		retained = uint64(limit)
	}
	if retained == 0 {
		return nil
	}
	out := make([]Decision, 0, retained)
	for i := n - retained; i < n; i++ {
		out = append(out, r.buf[i%uint64(len(r.buf))])
	}
	return out
}

// WriteJSONL writes the most recent decisions as one JSON object per line,
// oldest first — the /tracez body and the ablation experiment's input
// format.
func (r *DecisionRing) WriteJSONL(w io.Writer, limit int) error {
	enc := json.NewEncoder(w) // Encode appends the newline
	for _, d := range r.Dump(limit) {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}

// Reset discards all retained decisions (recording state is unchanged).
func (r *DecisionRing) Reset() {
	r.mu.Lock()
	r.next = 0
	r.mu.Unlock()
}
