package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
)

// Tail lengths of the flight recorder: how many of the most recent
// simulator events it retains, and how many of the registry's most recent
// decision records and completed spans a snapshot carries. Events dominate
// (one per kernel, transfer and eviction); decisions are one per
// placement; spans one per stage.
const (
	DefFlightEvents    = 8192
	DefFlightDecisions = 2048
	DefFlightSpans     = 512
)

// ring is a bounded overwrite-oldest buffer of simulator events, behind its
// own mutex: recording is a lock, an index increment and a value copy — no
// allocation once the ring is built.
type ring struct {
	mu  sync.Mutex
	buf []Event
	// n is the total number of events ever offered; the ring holds the
	// last min(n, len(buf)) of them.
	n uint64
}

func newRing(capacity int) ring { return ring{buf: make([]Event, capacity)} }

func (r *ring) record(e *Event) {
	r.mu.Lock()
	r.buf[r.n%uint64(len(r.buf))] = *e
	r.n++
	r.mu.Unlock()
}

// snapshot copies the retained events oldest-first and reports the total
// ever offered.
func (r *ring) snapshot() ([]Event, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	kept := min(r.n, size)
	out := make([]Event, 0, kept)
	for i := r.n - kept; i < r.n; i++ {
		out = append(out, r.buf[i%size])
	}
	return out, r.n
}

// FlightRecorder is the always-on post-mortem buffer of a run: a bounded
// ring of the most recent simulator events, read together with the tail of
// the decision records and completed spans its registry already keeps.
// Attach one to a Registry with SetFlightRecorder; the simulator then feeds
// it events as a side effect of ordinary observation. Recording is
// lock-cheap and allocation-free; when no recorder is attached the cost is
// a single atomic load per event.
//
// Snapshot captures the current tail on demand (the /trace and /flight
// endpoints of the observability server are built on it), and the
// execution engine calls Dump automatically on device-loss recovery and on
// ErrClusterLost, so the moments leading up to a failure survive it.
type FlightRecorder struct {
	events ring
	// reg is the registry the recorder was last attached to: its decision
	// and span stores are the other two tails a snapshot copies.
	reg atomic.Pointer[Registry]

	dumpMu   sync.Mutex
	lastDump *FlightSnapshot
}

// NewFlightRecorder builds a recorder retaining the last DefFlightEvents
// simulator events.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{events: newRing(DefFlightEvents)}
}

// RecordEvent retains a copy of one simulator event. Nil-safe.
func (fr *FlightRecorder) RecordEvent(e *Event) {
	if fr == nil {
		return
	}
	fr.events.record(e)
}

// FlightSnapshot is a point-in-time copy of the recorder's tail: its
// retained events and its registry's last decision records and spans. The
// Total* fields count everything recorded, so consumers can tell how much
// history the tails leave out.
type FlightSnapshot struct {
	// Reason is why the snapshot was taken: "" for on-demand snapshots, a
	// description of the failure for automatic dumps.
	Reason         string           `json:"reason,omitempty"`
	Events         []Event          `json:"events"`
	Decisions      []DecisionRecord `json:"decisions"`
	Spans          []Span           `json:"spans"`
	TotalEvents    uint64           `json:"total_events"`
	TotalDecisions uint64           `json:"total_decisions"`
	TotalSpans     uint64           `json:"total_spans"`
}

// Snapshot copies the tail, oldest records first: the retained events, and
// the last DefFlightDecisions decision records and DefFlightSpans spans of
// the registry the recorder is attached to (none before it is attached).
// Nil-safe: a nil recorder snapshots as nil.
func (fr *FlightRecorder) Snapshot() *FlightSnapshot {
	if fr == nil {
		return nil
	}
	s := &FlightSnapshot{Decisions: []DecisionRecord{}, Spans: []Span{}}
	s.Events, s.TotalEvents = fr.events.snapshot()
	if r := fr.reg.Load(); r != nil {
		r.mu.Lock()
		s.Decisions, s.TotalDecisions = tail(r.decisions, DefFlightDecisions)
		s.Spans, s.TotalSpans = tail(r.spans, DefFlightSpans)
		r.mu.Unlock()
	}
	return s
}

// tail copies the last n elements of s and reports len(s).
func tail[T any](s []T, n int) ([]T, uint64) {
	k := min(len(s), n)
	return append(make([]T, 0, k), s[len(s)-k:]...), uint64(len(s))
}

// Dump snapshots the recorder and retains the snapshot as the last dump
// (LastDump), tagged with reason. The execution engine calls it on
// device-loss recovery and cluster loss; callers may also dump manually.
// Nil-safe.
func (fr *FlightRecorder) Dump(reason string) *FlightSnapshot {
	if fr == nil {
		return nil
	}
	s := fr.Snapshot()
	s.Reason = reason
	fr.dumpMu.Lock()
	fr.lastDump = s
	fr.dumpMu.Unlock()
	return s
}

// LastDump returns the most recent Dump snapshot (nil if none was taken).
func (fr *FlightRecorder) LastDump() *FlightSnapshot {
	if fr == nil {
		return nil
	}
	fr.dumpMu.Lock()
	defer fr.dumpMu.Unlock()
	return fr.lastDump
}

// WriteJSON serializes the snapshot as indented JSON.
func (s *FlightSnapshot) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return err
	}
	return bw.Flush()
}

// SetFlightRecorder attaches (or, with nil, detaches) a flight recorder.
// While attached, every simulator event the cluster's observer sees is
// retained in the recorder's ring, and the recorder's snapshots read this
// registry's decision records and spans (they still do after a detach).
// Nil-safe on a nil registry.
func (r *Registry) SetFlightRecorder(fr *FlightRecorder) {
	if r == nil {
		return
	}
	if fr != nil {
		fr.reg.Store(r)
	}
	r.flight.Store(fr)
}

// FlightRecorder returns the attached recorder (nil when none, or on a nil
// registry): one atomic load, so the simulator can guard each event on it
// without cost.
func (r *Registry) FlightRecorder() *FlightRecorder {
	if r == nil {
		return nil
	}
	return r.flight.Load()
}
