package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

// refWriteDecisionsNDJSON is the encoding/json writer WriteDecisionsNDJSON
// replaced, kept verbatim as its oracle.
func refWriteDecisionsNDJSON(w io.Writer, recs []DecisionRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, d := range recs {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ndjsonRecords are records a run never produces: every field zero, every
// field set, negative, at the ends of its type, and each policy twice.
func ndjsonRecords() []DecisionRecord {
	floats := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 0.001, 1.0 / 3, -2.5, 1e20, 1e21, 123456789e30,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 5e-324,
		11615404032, -5, 1e15, 1<<53 - 1, -(1<<53 - 1), 1 << 53, 1<<53 + 2, 1 << 62, -(1 << 63), 1 << 63, 4503599627370497}
	recs := []DecisionRecord{{}, {Candidates: []CandidateScore{}}, {BoundIndex: -1, Pattern: math.MaxUint8}}
	for i := 0; i < 2*int(numPolicies); i++ {
		f := floats[i%len(floats)]
		recs = append(recs, DecisionRecord{
			Stage: int32(i), Pair: int32(-i), Out: math.MaxUint64 >> i, A: uint64(i), B: 1 << 63,
			Device: math.MinInt32 + int32(i), Pattern: ReusePattern(i%6 - 1),
			BoundIndex: int32(i%4 - 1), Bound: int32(-i), BalanceNum: math.MaxInt32 - int32(i), Policy: Policy(i % int(numPolicies)),
			Candidates:     []CandidateScore{{Device: i, Score: f}, {Device: -1, Score: -f}, {Score: floats[(i+3)%len(floats)]}}[:i%4],
			PredictedBytes: math.MinInt64 + int64(i), ActualBytes: -int64(i), ActualD2HBytes: int64(i) << 40,
			Evictions: int32(i % 2), SimTime: f, Recovery: i%2 == 1,
		})
	}
	return recs
}

// TestDecisionsNDJSONMatchesEncodingJSON holds the append encoder to
// encoding/json byte for byte, and to failing the same records with the
// same message, having written nothing of the failing one.
func TestDecisionsNDJSONMatchesEncodingJSON(t *testing.T) {
	recs := ndjsonRecords()
	var got, want bytes.Buffer
	if err := WriteDecisionsNDJSON(&got, recs); err != nil {
		t.Fatal(err)
	}
	if err := refWriteDecisionsNDJSON(&want, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := range min(len(g), len(w)) {
			if g[i] != w[i] {
				t.Fatalf("line %d differs:\n got  %s\n want %s", i+1, g[i], w[i])
			}
		}
		t.Fatalf("%d lines written, encoding/json writes %d", len(g), len(w))
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, rec := range map[string]DecisionRecord{
			"sim_time":             {Stage: 1, SimTime: bad},
			"score":                {Stage: 2, Candidates: []CandidateScore{{Score: 1}, {Score: bad}}},
			"score, then sim_time": {Stage: 3, Candidates: []CandidateScore{{Score: bad}}, SimTime: -bad},
		} {
			good := DecisionRecord{Stage: 9, Policy: PolicyTwoLevel}
			var got, want bytes.Buffer
			gerr := WriteDecisionsNDJSON(&got, []DecisionRecord{good, rec})
			werr := refWriteDecisionsNDJSON(&want, []DecisionRecord{good, rec})
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
				t.Errorf("%s %v: error %v, encoding/json's %v", name, bad, gerr, werr)
			}
			if got.Len() != 0 {
				t.Errorf("%s %v: %d bytes reached the writer before the error", name, bad, got.Len())
			}
		}
	}
}

// TestReadDecisionsNDJSONReportsLines checks that a malformed record is
// named by its line in the stream, blank lines counted.
func TestReadDecisionsNDJSONReportsLines(t *testing.T) {
	in := "{\"stage\":1}\n\n   \n{\"stage\":2}\n\n{\"stage\":\n{\"stage\":4}\n"
	_, err := ReadDecisionsNDJSON(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 6:") {
		t.Errorf("malformed line 6: got %v", err)
	}
	recs, err := ReadDecisionsNDJSON(strings.NewReader("\n{\"stage\":1}\n\n{\"stage\":2,\"pattern\":\"twoNew\"}"))
	if err != nil || len(recs) != 2 || recs[1].Stage != 2 || recs[1].Pattern != TwoNew {
		t.Errorf("blank lines and a last line without newline: %+v, %v", recs, err)
	}
}

// TestRecordDecisionKeepsMaxCandidates checks the cap: the first
// MaxCandidates a scheduler listed are kept, in order, and a shorter list
// is kept whole.
func TestRecordDecisionKeepsMaxCandidates(t *testing.T) {
	r := New()
	var cands []CandidateScore
	for d := range 3 * MaxCandidates {
		cands = append(cands, CandidateScore{Device: d, Score: float64(d)})
	}
	r.RecordDecision(&DecisionRecord{Candidates: cands})
	r.RecordDecision(&DecisionRecord{Candidates: cands[:MaxCandidates-1]})
	got := r.Decisions()
	if len(got[0].Candidates) != MaxCandidates || len(got[1].Candidates) != MaxCandidates-1 {
		t.Fatalf("kept %d and %d candidates, want %d and %d", len(got[0].Candidates), len(got[1].Candidates), MaxCandidates, MaxCandidates-1)
	}
	for i, c := range got[0].Candidates {
		if c != cands[i] {
			t.Fatalf("candidate %d = %+v, want %+v", i, c, cands[i])
		}
	}
}

// TestDecisionsIsAView checks that Decisions hands out the store without
// copying it: no allocation however many records there are.
func TestDecisionsIsAView(t *testing.T) {
	r := New()
	r.ReserveDecisions(1000)
	for i := range 1000 {
		r.RecordDecision(&DecisionRecord{Pair: int32(i), Candidates: []CandidateScore{{Device: i}}})
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = r.Decisions() }); allocs != 0 {
		t.Errorf("Decisions made %v allocations, want 0", allocs)
	}
	if v := r.Decisions(); len(v) != 1000 || cap(v) != 1000 {
		t.Errorf("view has len %d cap %d, want 1000 1000 (capacity-clipped)", len(v), cap(v))
	}
}

// TestDecisionsViewStableUnderWriters ranges over views while another
// goroutine keeps recording and reserving: under -race, this is the proof
// that a view is never written to after it is handed out.
func TestDecisionsViewStableUnderWriters(t *testing.T) {
	r := New()
	const total = 4000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cands := make([]CandidateScore, 3)
		for i := range total {
			for j := range cands {
				cands[j] = CandidateScore{Device: i, Score: float64(j)}
			}
			r.RecordDecision(&DecisionRecord{Pair: int32(i), Candidates: cands})
			if i%500 == 0 {
				r.ReserveDecisions(700)
			}
		}
	}()
	check := func(view []DecisionRecord) {
		for i := range view {
			d := &view[i]
			if int(d.Pair) != i || len(d.Candidates) != 3 || d.Candidates[2] != (CandidateScore{Device: i, Score: 2}) {
				t.Fatalf("record %d of a %d-record view is %+v", i, len(view), *d)
			}
		}
	}
	for n := 0; n < total; {
		view := r.Decisions()
		check(view)
		n = len(view)
		check(view) // the same view, read again after more records landed
	}
	wg.Wait()
}
