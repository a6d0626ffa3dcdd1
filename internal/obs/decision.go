package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
)

// ReusePattern is the local reuse classification of a tensor pair against
// current GPU residency (paper Fig. 4). Values mirror internal/core's
// enumeration so the two layers agree without an import cycle (core
// depends on sched, which depends on this package).
type ReusePattern int

const (
	// TwoRepeatedSame: both tensors resident on at least one common GPU.
	TwoRepeatedSame ReusePattern = iota
	// TwoRepeatedDiff: both tensors resident, but on disjoint GPUs.
	TwoRepeatedDiff
	// OneRepeated: exactly one tensor of the pair is resident somewhere.
	OneRepeated
	// TwoNew: neither tensor is resident on any GPU.
	TwoNew
)

// NumReusePatterns is the number of reuse pattern classes.
const NumReusePatterns = 4

// String implements fmt.Stringer.
func (r ReusePattern) String() string {
	switch r {
	case TwoRepeatedSame:
		return "twoRepeatedSame"
	case TwoRepeatedDiff:
		return "twoRepeatedDiff"
	case OneRepeated:
		return "oneRepeated"
	case TwoNew:
		return "twoNew"
	default:
		return fmt.Sprintf("ReusePattern(%d)", int(r))
	}
}

// MarshalJSON renders the pattern as its name, keeping decision NDJSON
// self-describing.
func (r ReusePattern) MarshalJSON() ([]byte, error) { return json.Marshal(r.String()) }

// UnmarshalJSON accepts both the name and the numeric form.
func (r *ReusePattern) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for p := ReusePattern(0); p < NumReusePatterns; p++ {
			if p.String() == s {
				*r = p
				return nil
			}
		}
		return fmt.Errorf("obs: unknown reuse pattern %q", s)
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*r = ReusePattern(n)
	return nil
}

// CandidateScore is one device the scheduler considered for a placement,
// with the score of its primary selection key (lower wins).
type CandidateScore struct {
	Device int     `json:"device"`
	Score  float64 `json:"score"`
}

// DecisionRecord explains one placement: which pair went to which device,
// what the scheduler saw (reuse pattern, gating bound, candidate scores,
// policy), and what it cost (predicted operand movement vs the transfer
// bytes the simulator actually charged).
//
// The execution engine fills the identity, pattern, predicted/actual and
// timing fields; the scheduler fills the fields only it knows (bound,
// policy, candidates) through sched.Context.Decision.
type DecisionRecord struct {
	// Stage and Pair locate the placement in the workload (stage-major).
	Stage int `json:"stage"`
	Pair  int `json:"pair"`
	// Out identifies the pair by its output tensor; A and B are the
	// operand tensor IDs.
	Out uint64 `json:"out"`
	A   uint64 `json:"a"`
	B   uint64 `json:"b"`
	// Device is the chosen GPU.
	Device int `json:"device"`
	// Pattern is the pair's local reuse pattern at placement time.
	Pattern ReusePattern `json:"pattern"`
	// BoundIndex is which of the three reuse bounds gated the candidate
	// set that produced the placement (-1 when the scheduler publishes no
	// bound: baselines, or MICCO's defensive fallback); Bound is that
	// bound's active value.
	BoundIndex int `json:"bound_index"`
	Bound      int `json:"bound,omitempty"`
	// BalanceNum is the stage's per-GPU balance point (ceil slots/GPUs).
	BalanceNum int `json:"balance_num"`
	// Policy names the final-selection rule: MICCO's "compute-centric" or
	// "memory-eviction", or a baseline's fixed policy.
	Policy string `json:"policy,omitempty"`
	// Candidates are the devices that survived candidate selection, each
	// with its primary-key score (lower wins).
	Candidates []CandidateScore `json:"candidates,omitempty"`
	// PredictedBytes is the operand volume the engine expected to move
	// for the chosen device (non-resident inputs); ActualBytes is the
	// H2D+P2P volume the simulator charged executing the pair, and
	// ActualD2HBytes the write-back volume (evictions, host staging).
	PredictedBytes int64 `json:"predicted_bytes"`
	ActualBytes    int64 `json:"actual_bytes"`
	ActualD2HBytes int64 `json:"actual_d2h_bytes,omitempty"`
	// Evictions is how many blocks this placement forced out.
	Evictions int64 `json:"evictions,omitempty"`
	// SimTime is the chosen device's simulated clock when the pair was
	// placed (seconds), anchoring the record on the trace timeline.
	SimTime float64 `json:"sim_time"`
	// Recovery marks a re-placement performed by the failure-recovery
	// path after a device loss (the pair had already executed once on the
	// lost device).
	Recovery bool `json:"recovery,omitempty"`
}

// MaxCandidates is how many candidates a decision record keeps: the first
// 64 the scheduler listed, one DevSet word's worth of devices. Every
// candidate set on a cluster of up to 64 devices is kept whole; past that,
// listing all of them would cost each watched placement O(devices) and
// undo the sub-linear step III of a wide cluster, to record scores nobody
// reads past the first screenful.
const MaxCandidates = 64

// candChunk is the candidate-arena chunk size (in CandidateScores): big
// enough that a steady decision stream allocates a fresh chunk only every
// few hundred records, small enough to waste little on short runs.
const candChunk = 2048

// RecordDecision appends one decision record. Nil-safe. The pointer is
// only read: *d is copied into the store and d is never retained or
// modified.
//
// The first MaxCandidates entries of the record's Candidates slice are
// deep-copied into a registry-owned chunked arena before the record is
// retained, so callers are free to reuse the backing array — the engine
// recycles one scratch record per run, which (with the by-pointer
// signature: one struct copy instead of two) keeps the obs-on placement
// path allocation-free.
func (r *Registry) RecordDecision(d *DecisionRecord) {
	if r == nil || d == nil {
		return
	}
	r.mu.Lock()
	r.decisions = append(r.decisions, *d)
	kept := &r.decisions[len(r.decisions)-1]
	if n := min(len(kept.Candidates), MaxCandidates); n > 0 {
		if cap(r.candArena)-len(r.candArena) < n {
			r.candArena = make([]CandidateScore, 0, candChunk)
		}
		off := len(r.candArena)
		r.candArena = append(r.candArena, kept.Candidates[:n]...)
		kept.Candidates = r.candArena[off : off+n : off+n]
	}
	r.mu.Unlock()
}

// ReserveDecisions grows the decision store so at least n more records
// append without reallocation. The engine calls it once per observed run
// with the workload's pair count, so a steady decision stream never pays
// append-growth copies (each record is ~200 bytes with pointer fields —
// regrowth is the dominant obs-on allocation otherwise). Nil-safe.
func (r *Registry) ReserveDecisions(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if cap(r.decisions)-len(r.decisions) >= n {
		return
	}
	grown := make([]DecisionRecord, len(r.decisions), len(r.decisions)+n)
	copy(grown, r.decisions)
	r.decisions = grown
}

// Decisions returns the decision records in placement order, as a view of
// the registry's own store: READ-ONLY. Nothing is copied — the records are
// append-only, so the records a view shows never change under it, however
// many are recorded or reserved after the call, and a later call returns a
// longer view of the same records. A caller that wants to modify records
// clones them first (slices.Clone, and a record's Candidates, which alias
// the registry's arena, with it).
func (r *Registry) Decisions() []DecisionRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.decisions)
	return r.decisions[:n:n]
}

// WriteDecisionsNDJSON writes one JSON object per line per decision record
// (newline-delimited JSON, greppable and streamable), byte for byte as
// encoding/json's Encoder writes each record, and failing on the same
// records (a non-finite SimTime or score) with the same error, before any
// byte of the failing record is written.
func WriteDecisionsNDJSON(w io.Writer, recs []DecisionRecord) error {
	// Records are encoded straight into one buffer that goes to w whenever
	// it nears 64 KB: no second buffer to copy them through.
	const flushAt = 60 << 10
	buf := make([]byte, 0, 64<<10)
	var err error
	for i := range recs {
		if buf, err = appendDecision(buf, &recs[i]); err != nil {
			return err
		}
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		_, err = w.Write(buf)
	}
	return err
}

// appendDecision appends d as one NDJSON line: its fields in declaration
// order under their JSON names, omitempty fields left out when zero, the
// pattern by name. A non-finite float fails the record where encoding/json
// meets it: the first bad score, else SimTime.
func appendDecision(b []byte, d *DecisionRecord) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"stage":`...), int64(d.Stage), 10)
	b = strconv.AppendInt(append(b, `,"pair":`...), int64(d.Pair), 10)
	b = strconv.AppendUint(append(b, `,"out":`...), d.Out, 10)
	b = strconv.AppendUint(append(b, `,"a":`...), d.A, 10)
	b = strconv.AppendUint(append(b, `,"b":`...), d.B, 10)
	b = strconv.AppendInt(append(b, `,"device":`...), int64(d.Device), 10)
	b = AppendJSONString(append(b, `,"pattern":`...), d.Pattern.String())
	b = strconv.AppendInt(append(b, `,"bound_index":`...), int64(d.BoundIndex), 10)
	if d.Bound != 0 {
		b = strconv.AppendInt(append(b, `,"bound":`...), int64(d.Bound), 10)
	}
	b = strconv.AppendInt(append(b, `,"balance_num":`...), int64(d.BalanceNum), 10)
	if d.Policy != "" {
		b = AppendJSONString(append(b, `,"policy":`...), d.Policy)
	}
	if len(d.Candidates) > 0 {
		b = append(b, `,"candidates":[`...)
		for i, c := range d.Candidates {
			if !finite(c.Score) {
				return b, unsupportedFloat(c.Score)
			}
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(b, `{"device":`...), int64(c.Device), 10)
			b = append(AppendJSONFloat(append(b, `,"score":`...), c.Score), '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"predicted_bytes":`...), d.PredictedBytes, 10)
	b = strconv.AppendInt(append(b, `,"actual_bytes":`...), d.ActualBytes, 10)
	if d.ActualD2HBytes != 0 {
		b = strconv.AppendInt(append(b, `,"actual_d2h_bytes":`...), d.ActualD2HBytes, 10)
	}
	if d.Evictions != 0 {
		b = strconv.AppendInt(append(b, `,"evictions":`...), d.Evictions, 10)
	}
	if !finite(d.SimTime) {
		return b, unsupportedFloat(d.SimTime)
	}
	b = AppendJSONFloat(append(b, `,"sim_time":`...), d.SimTime)
	if d.Recovery {
		b = append(b, `,"recovery":true`...)
	}
	return append(b, "}\n"...), nil
}

// unsupportedFloat is the error encoding/json returns for a non-finite
// float64.
func unsupportedFloat(f float64) error {
	return &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
}

// ReadDecisionsNDJSON parses a WriteDecisionsNDJSON stream back into
// decision records. Blank lines are skipped; a malformed line fails with
// its 1-based line number in the stream.
func ReadDecisionsNDJSON(r io.Reader) ([]DecisionRecord, error) {
	var recs []DecisionRecord
	br := bufio.NewReader(r)
	for line := 1; ; line++ {
		text, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("obs: decisions line %d: %w", line, err)
		}
		if t := bytes.TrimSpace(text); len(t) > 0 {
			var d DecisionRecord
			if err := json.Unmarshal(t, &d); err != nil {
				return nil, fmt.Errorf("obs: decisions line %d: %w", line, err)
			}
			recs = append(recs, d)
		}
		if err == io.EOF {
			return recs, nil
		}
	}
}
