package gpusim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"micco/internal/obs"
)

// refWriteChromeTrace is the writer writeChromeTrace replaced, kept
// verbatim as the oracle: fmt formats every record, so what %q, %.3f and %d
// mean is not restated here.
func refWriteChromeTrace(w io.Writer, events []Event, decisions []obs.DecisionRecord) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	total := len(events) + len(decisions)
	n := 0
	sep := func() string {
		n++
		if n == total {
			return ""
		}
		return ","
	}
	for _, e := range events {
		if e.Kind == EventFault {
			// Faults render as process-scoped instants so Perfetto pins
			// them to the moment of injection rather than a duration bar.
			pid := e.Device
			if pid < 0 {
				pid = 0
			}
			_, err := fmt.Fprintf(w,
				"  {\"name\":%q,\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,\"tid\":0,\"s\":\"p\","+
					"\"args\":{\"device\":%d}}%s\n",
				fmt.Sprintf("fault %s", e.Note()), e.Start*1e6, pid, e.Device, sep())
			if err != nil {
				return err
			}
			continue
		}
		tid := 0 // kernel queue
		if e.Kind != EventKernel {
			tid = 1 // copy/eviction queue
		}
		_, err := fmt.Fprintf(w,
			"  {\"name\":%q,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,"+
				"\"args\":{\"tensor\":%d,\"bytes\":%d,\"flops\":%d}}%s\n",
			fmt.Sprintf("%s t%d", e.Kind, e.Tensor),
			e.Start*1e6, e.Duration()*1e6, e.Device, tid,
			e.Tensor, e.Bytes, e.FLOPs, sep())
		if err != nil {
			return err
		}
	}
	for _, d := range decisions {
		_, err := fmt.Fprintf(w,
			"  {\"name\":%q,\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,\"tid\":0,\"s\":\"t\","+
				"\"args\":{\"stage\":%d,\"pair\":%d,\"pattern\":%q,\"bound_index\":%d,\"bound\":%d,"+
				"\"policy\":%q,\"candidates\":%d,\"predicted_bytes\":%d,\"actual_bytes\":%d,\"evictions\":%d}}%s\n",
			fmt.Sprintf("decide t%d", d.Out),
			d.SimTime*1e6, d.Device,
			d.Stage, d.Pair, d.Pattern.String(), d.BoundIndex, d.Bound,
			d.Policy, len(d.Candidates), d.PredictedBytes, d.ActualBytes, d.Evictions, sep())
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// RefWriteChromeTrace hands the oracle to the external test package, whose
// recorded run imports the engine (which imports this package).
var RefWriteChromeTrace = refWriteChromeTrace

// TestChromeTraceMatchesFmtWriter holds the append-encoded writer to the
// fmt one byte for byte on the records a run does not produce: every fault
// note at the ends of its argument's type, policies that need every sort of
// escape, devices, counts and tensors at the ends of their types, times
// that are zero, negative zero, below the printed precision, huge, or not
// numbers, and every way a trace can lack events, decisions or both.
func TestChromeTraceMatchesFmtWriter(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	times := []float64{0, math.Copysign(0, -1), 1e-12, 4.4e-10, 5e-10, 0.0015, 1.0 / 3, -2.5, 1e15, 1e300, math.MaxFloat64, nan, inf, -inf}
	notes := []string{
		"", "device-loss", "link-degrade x0.25", `say "hi"`, `back\slash`, "tab\there", "line\nbreak",
		"nul\x00", "del\x7f", "snow☃", "sep\u2028", "bad\xffutf8", "<&>", "\U0001f600",
	}
	type fault struct {
		code FaultCode
		arg  uint64
	}
	faults := []fault{{FaultNone, 0}, {FaultDeviceLoss, 0}, {FaultDeviceRestore, 0}, {FaultCode(200), 7}}
	for _, f := range []float64{0.25, 1e-05, 3, 1e21, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.MaxFloat64, nan, inf, -inf} {
		faults = append(faults, fault{FaultLinkDegrade, math.Float64bits(f)})
	}
	for _, n := range []int64{1, 1 << 62, -1, math.MaxInt64, math.MinInt64} {
		faults = append(faults, fault{FaultMemCapacity, uint64(n)}, fault{FaultTransientTransfer, uint64(n)})
	}
	var events []Event
	for i, at := range times {
		end := times[(i+5)%len(times)]
		f := faults[i%len(faults)]
		events = append(events,
			Event{Kind: EventKind(i % numEventKinds), Device: i - 2, Tensor: uint64(i), Start: at, End: end, Bytes: int64(i), FLOPs: int64(-i), Fault: FaultMemCapacity, Arg: 9},
			Event{Kind: EventKernel, Device: 3, Tensor: math.MaxUint64, Start: at, End: at, Bytes: math.MaxInt64, FLOPs: math.MinInt64},
			Event{Kind: EventFault, Device: -1, Start: at, End: at, Fault: f.code, Arg: f.arg},
		)
	}
	for i, f := range faults {
		events = append(events, Event{Kind: EventFault, Device: i - 1, Start: 0.5, End: 0.5, Fault: f.code, Arg: f.arg})
	}
	events = append(events,
		Event{Kind: EventKind(99), Device: math.MaxInt, Tensor: 7, Start: 1, End: 2},
		Event{Kind: EventKind(253), Device: math.MinInt, Tensor: 8, Start: 2, End: 1},
	)
	var decisions []obs.DecisionRecord
	for i, note := range notes {
		decisions = append(decisions, obs.DecisionRecord{
			Stage: i, Pair: -i, Out: uint64(i) << 58, Device: i - 1, Pattern: obs.ReusePattern(i - 1),
			BoundIndex: i%4 - 1, Bound: i, Policy: note, Candidates: make([]obs.CandidateScore, i%3),
			PredictedBytes: int64(i) << 40, ActualBytes: -int64(i), Evictions: int64(i), SimTime: times[i%len(times)],
		})
	}
	for name, tc := range map[string]struct {
		events    []Event
		decisions []obs.DecisionRecord
	}{
		"both":           {events, decisions},
		"events only":    {events, nil},
		"decisions only": {nil, decisions},
		"one event":      {events[:1], nil},
		"one fault":      {events[2:3], nil},
		"one decision":   {nil, decisions[:1]},
		"fault last":     {events[:3], nil},
		"empty":          {nil, nil},
		"empty slices":   {[]Event{}, []obs.DecisionRecord{}},
	} {
		var got, want bytes.Buffer
		if err := writeChromeTrace(&got, tc.events, tc.decisions); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := refWriteChromeTrace(&want, tc.events, tc.decisions); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: the trace differs from the fmt writer's at byte %d:\n%s\nfmt writes\n%s",
				name, firstDiff(got.Bytes(), want.Bytes()), got.Bytes(), want.Bytes())
		}
	}
}

// TestAppendFixed3MatchesStrconv holds the integer formatter to strconv's
// %.3f digit for digit: on random bit patterns of every exponent, on the
// microsecond range traces live in, on exact ties (odd multiples of 1/16000
// are the only ones a float64 can hold) and their neighbours, on carries
// into the whole part, and at the edges of each of its cases.
func TestAppendFixed3MatchesStrconv(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		got, want := appendFixed3(nil, f), strconv.AppendFloat(nil, f, 'f', 3, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("%v (bits %#x): %s, strconv writes %s", f, math.Float64bits(f), got, want)
		}
	}
	both := func(f float64) {
		for _, g := range []float64{f, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1))} {
			check(g)
			check(-g)
		}
	}
	for _, f := range []float64{
		0, 1, 0.0005, 0.001, 0.9995, 0.99949999, 999.9995, 1e-300, 5e-324, 2.2250738585072014e-308,
		1 << 52, 1 << 53, 1 << 63, 1<<64 - 1<<11, 1 << 64, 1 << 65, 1e19, 1e20, 1e300, math.MaxFloat64,
		math.Inf(1), math.NaN(), 0x1p-10, 0x1p-11, 0x1p-12, 0x1p-63, 0x1p-64, 0x1p-65,
	} {
		both(f)
	}
	for k := 1; k < 40000; k += 2 {
		// k/16000 = k*62.5 thousandths: a tie when k is odd.
		both(float64(k) / 16000)
		both(float64(k)/16000 + 4e6)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
		check(rng.Float64() * 5e6)               // microseconds of a run
		check(rng.Float64() * 0x1p-9)            // around the smallest value that prints a digit
		check(float64(rng.Int63n(1<<40)) / 1000) // a thousandth, as near as a float64 comes
	}
}

// TestAppendQuotedMatchesStrconv holds the pass-through to AppendQuote on
// every single byte, alone and inside a name, and on multi-byte runes.
func TestAppendQuotedMatchesStrconv(t *testing.T) {
	names := []string{"", "kernel t1", "EventKind(-3) t0", "snow☃", "bad\xffutf8", "sep\u2028", "\U0001f600"}
	for c := 0; c < 256; c++ {
		names = append(names, string([]byte{byte(c)}), "fault x"+string([]byte{byte(c)})+"y")
	}
	for _, name := range names {
		if got, want := appendQuoted(nil, name), strconv.AppendQuote(nil, name); !bytes.Equal(got, want) {
			t.Errorf("%q: %s, strconv writes %s", name, got, want)
		}
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestChromeTraceWriteError checks that a failing writer's error comes
// back, wherever in the trace the write fails.
func TestChromeTraceWriteError(t *testing.T) {
	events := make([]Event, 500) // more than one buffer's worth
	decisions := make([]obs.DecisionRecord, 500)
	var whole bytes.Buffer
	if err := writeChromeTrace(&whole, events, decisions); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for _, after := range []int{0, 1, 5000, whole.Len() - 1} {
		if err := writeChromeTrace(&failAfter{n: after, err: boom}, events, decisions); !errors.Is(err, boom) {
			t.Errorf("writer failing after %d bytes: got %v, want %v", after, err, boom)
		}
	}
}

// failAfter accepts n bytes and fails every write after them.
type failAfter struct {
	n   int
	err error
}

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, f.err
	}
	f.n -= len(p)
	return len(p), nil
}
