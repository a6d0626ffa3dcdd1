package gpusim

import (
	"bufio"
	"io"
	"math"
	"strconv"

	"micco/internal/obs"
)

// Event is the simulator's event record, declared with its kinds, fault
// codes and note renderer in obs so the flight recorder keeps it as
// written. The alias keeps the name the benchmark module uses.
type Event = obs.Event

// StartTrace begins recording events; any previously recorded events are
// dropped. Tracing survives Reset (events clear, recording continues). The
// log is allocated at the length of the cluster's previous finished trace: a
// repeat of a traced run never re-grows it, a first or longer one appends.
func (c *Cluster) StartTrace() {
	c.tracing = true
	c.traceEvents = make([]obs.Event, 0, c.traceCap)
}

// StopTrace stops recording and returns the recorded events. The slice is
// the caller's: the cluster keeps only its length, for the next StartTrace.
func (c *Cluster) StopTrace() []obs.Event {
	c.tracing = false
	out := c.traceEvents
	c.traceEvents = nil
	if len(out) > 0 {
		c.traceCap = len(out)
	}
	return out
}

// TraceEvents returns a copy of the events recorded so far without
// stopping, so callers cannot corrupt an in-progress trace by mutating or
// re-slicing the returned slice. Nil when nothing has been recorded.
func (c *Cluster) TraceEvents() []obs.Event {
	if len(c.traceEvents) == 0 {
		return nil
	}
	out := make([]obs.Event, len(c.traceEvents))
	copy(out, c.traceEvents)
	return out
}

// observing reports whether anyone consumes simulator events. Call sites
// guard emit on it, so the hot path with tracing and metrics both off never
// writes an event.
func (c *Cluster) observing() bool { return c.tracing || c.sink != nil }

// emit records one simulator event where it will be read — and hands the
// sink that one copy by pointer.
func (c *Cluster) emit(kind obs.EventKind, dev int, tensor uint64, start, end float64, bytes, flops int64) {
	e := c.put(kind, dev, tensor, start, end, bytes, flops)
	if c.sink != nil {
		c.sink.observe(e)
	}
}

// put writes an event field by field into the trace log's next slot, or
// into the cluster's scratch event when only the sink listens, and returns
// it. Nothing is built elsewhere and copied in: the sink's loads then read
// what these stores wrote, word for word.
func (c *Cluster) put(kind obs.EventKind, dev int, tensor uint64, start, end float64, bytes, flops int64) *obs.Event {
	e := &c.scratch
	if c.tracing {
		n := len(c.traceEvents)
		if n < cap(c.traceEvents) {
			c.traceEvents = c.traceEvents[:n+1]
		} else {
			c.traceEvents = append(c.traceEvents, obs.Event{})
		}
		e = &c.traceEvents[n]
	}
	e.Kind, e.Fault, e.Device, e.Tensor = kind, obs.FaultNone, int32(dev), tensor
	e.Start, e.End, e.Bytes, e.FLOPs = start, end, bytes, flops
	return e
}

// WriteChromeTraceMerged serializes events in the Chrome tracing
// (catapult) JSON array format — open chrome://tracing or
// https://ui.perfetto.dev and load the file; devices map to process IDs,
// kernel and copy queues to threads — and merges scheduler decision records
// (nil for none) into the same timeline as instant events ("ph":"i") on the
// chosen device's kernel thread, so Perfetto shows *why* each pair landed
// where it did next to the kernels and transfers it caused. Timestamps are
// the decision's simulated placement time.
func WriteChromeTraceMerged(w io.Writer, events []obs.Event, decisions []obs.DecisionRecord) error {
	return writeChromeTrace(w, events, decisions)
}

// writeChromeTrace appends each record into one reused buffer and hands it
// to one buffered writer. The format is the one fmt used to produce, byte
// for byte: a name as %q writes it (appendQuoted), a time in microseconds as
// %.3f does (appendFixed3), a count as %d does (AppendInt, AppendUint).
func writeChromeTrace(w io.Writer, events []obs.Event, decisions []obs.DecisionRecord) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	last := len(events) + len(decisions) - 1
	var buf, name []byte
	// emit closes the record in buf; every record but the last is followed
	// by a comma.
	emit := func(i int) error {
		if i != last {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
		_, err := bw.Write(buf)
		return err
	}
	num := func(b []byte, key string, v int64) []byte { return strconv.AppendInt(append(b, key...), v, 10) }
	for i := range events {
		e := &events[i]
		if e.Kind == obs.EventFault {
			// Faults render as process-scoped instants so Perfetto pins
			// them to the moment of injection rather than a duration bar.
			name = e.AppendNote(append(name[:0], "fault "...))
			buf = appendQuoted(append(buf[:0], `  {"name":`...), string(name))
			buf = appendFixed3(append(buf, `,"ph":"i","ts":`...), e.Start*1e6)
			buf = num(buf, `,"pid":`, int64(max(e.Device, 0)))
			buf = num(buf, `,"tid":0,"s":"p","args":{"device":`, int64(e.Device))
		} else {
			tid := int64(0) // kernel queue
			if e.Kind != obs.EventKernel {
				tid = 1 // copy/eviction queue
			}
			name = strconv.AppendUint(append(append(name[:0], e.Kind.String()...), " t"...), e.Tensor, 10)
			buf = appendQuoted(append(buf[:0], `  {"name":`...), string(name))
			buf = appendFixed3(append(buf, `,"ph":"X","ts":`...), e.Start*1e6)
			buf = appendFixed3(append(buf, `,"dur":`...), e.Duration()*1e6)
			buf = num(buf, `,"pid":`, int64(e.Device))
			buf = num(buf, `,"tid":`, tid)
			buf = strconv.AppendUint(append(buf, `,"args":{"tensor":`...), e.Tensor, 10)
			buf = num(buf, `,"bytes":`, e.Bytes)
			buf = num(buf, `,"flops":`, e.FLOPs)
		}
		buf = append(buf, "}}"...)
		if err := emit(i); err != nil {
			return err
		}
	}
	for i := range decisions {
		d := &decisions[i]
		name = strconv.AppendUint(append(name[:0], "decide t"...), d.Out, 10)
		buf = appendQuoted(append(buf[:0], `  {"name":`...), string(name))
		buf = appendFixed3(append(buf, `,"ph":"i","ts":`...), d.SimTime*1e6)
		buf = num(buf, `,"pid":`, int64(d.Device))
		buf = num(buf, `,"tid":0,"s":"t","args":{"stage":`, int64(d.Stage))
		buf = num(buf, `,"pair":`, int64(d.Pair))
		buf = appendQuoted(append(buf, `,"pattern":`...), d.Pattern.String())
		buf = num(buf, `,"bound_index":`, int64(d.BoundIndex))
		buf = num(buf, `,"bound":`, int64(d.Bound))
		buf = appendQuoted(append(buf, `,"policy":`...), d.Policy.String())
		buf = num(buf, `,"candidates":`, int64(len(d.Candidates)))
		buf = num(buf, `,"predicted_bytes":`, d.PredictedBytes)
		buf = num(buf, `,"actual_bytes":`, d.ActualBytes)
		buf = num(buf, `,"evictions":`, int64(d.Evictions))
		buf = append(buf, "}}"...)
		if err := emit(len(events) + i); err != nil {
			return err
		}
	}
	bw.WriteString("]\n")
	return bw.Flush() // reports the first failed write, if any
}

// appendQuoted appends s as strconv.AppendQuote does. Printable ASCII
// without a quote or a backslash is what the simulator's names are made of
// and goes through as it is; anything else is left to strconv.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendFixed3 appends f as strconv.AppendFloat(b, f, 'f', 3, 64) does,
// which for a fixed precision shifts a multi-word decimal per call. A
// float64 is mant/2^shift exactly, so below 2^64 the whole part and the
// thousandths are two integer divisions by a power of two, rounded half to
// even on the exact remainder as strconv rounds.
func appendFixed3(b []byte, f float64) []byte {
	bits := math.Float64bits(f)
	mant, exp := bits&(1<<52-1), int(bits>>52&0x7ff)
	if exp == 0 {
		exp = 1 // subnormal: no implicit bit
	} else {
		mant |= 1 << 52
	}
	shift := 1075 - exp
	if shift < -11 {
		return strconv.AppendFloat(b, f, 'f', 3, 64) // 2^64 and above, infinities, NaN
	}
	var whole, frac uint64
	switch {
	case shift <= 0:
		whole = mant << -shift
	case shift < 64:
		// The remainder is below 2^53: a thousand of it is below 2^63.
		whole = mant >> shift
		scaled := (mant & (1<<shift - 1)) * 1000
		frac = scaled >> shift
		if rest, half := scaled&(1<<shift-1), uint64(1)<<(shift-1); rest > half || rest == half && frac&1 == 1 {
			if frac++; frac == 1000 {
				whole, frac = whole+1, 0
			}
		}
	} // else f is below 2^-11: less than half a thousandth
	if bits>>63 != 0 {
		b = append(b, '-')
	}
	b = strconv.AppendUint(b, whole, 10)
	return append(b, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}
