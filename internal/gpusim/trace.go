package gpusim

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"micco/internal/obs"
)

// EventKind classifies a traced simulator event. One byte wide: with the
// fault code beside it and an int32 device, an Event is six words.
type EventKind uint8

const (
	// EventKernel is a contraction kernel execution.
	EventKernel EventKind = iota
	// EventH2D is a host-to-device transfer.
	EventH2D
	// EventD2H is a device-to-host transfer (write-back or staging).
	EventD2H
	// EventP2P is a device-to-device transfer.
	EventP2P
	// EventEvict is an eviction (excluding any write-back transfer, which
	// is traced separately as EventD2H).
	EventEvict
	// EventInter is an inter-node transfer: a cross-node peer copy, or a
	// host copy shipped between node partitions, serialized on the
	// inter-node interconnect. Device is the requesting (destination)
	// device.
	EventInter
	// EventFault is an injected fault (device loss/restore, link
	// degradation, capacity shrink, transient-failure arming). Zero
	// duration; Fault and its argument say which, Note renders them. Device -1 marks
	// cluster-wide faults.
	EventFault
)

// FaultCode names the injected fault an EventFault records.
type FaultCode uint8

const (
	// FaultNone marks every event that is not a fault.
	FaultNone FaultCode = iota
	// FaultDeviceLoss is FailDevice: "device-loss".
	FaultDeviceLoss
	// FaultDeviceRestore is RestoreDevice: "device-restore".
	FaultDeviceRestore
	// FaultLinkDegrade is DegradeLink; the argument is the factor's
	// math.Float64bits: "link-degrade x0.25".
	FaultLinkDegrade
	// FaultMemCapacity is SetMemoryCapacity; the argument is the capacity
	// in bytes: "mem-capacity 524288".
	FaultMemCapacity
	// FaultTransientTransfer is InjectTransientFailures; the argument is
	// the failure count: "transient-transfer x3".
	FaultTransientTransfer
)

// faultNames are the fixed part of each fault's note, indexed by FaultCode.
var faultNames = [...]string{
	FaultDeviceLoss:        "device-loss",
	FaultDeviceRestore:     "device-restore",
	FaultLinkDegrade:       "link-degrade x",
	FaultMemCapacity:       "mem-capacity ",
	FaultTransientTransfer: "transient-transfer x",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventKernel:
		return "kernel"
	case EventH2D:
		return "h2d"
	case EventD2H:
		return "d2h"
	case EventP2P:
		return "p2p"
	case EventEvict:
		return "evict"
	case EventInter:
		return "inter"
	case EventFault:
		return "fault"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one traced simulator operation on a device timeline: 48 bytes
// that hold no pointer — a fault's description is a code and one argument,
// rendered by Note — so a trace log is memory the garbage collector never
// scans.
type Event struct {
	Kind EventKind
	// Fault is the injected fault of an EventFault (FaultNone on every
	// other event); see the FaultCode constants for its argument.
	Fault FaultCode
	// Device is the device's index; Config.Validate caps the count well
	// inside an int32.
	Device int32
	// Tensor is the subject tensor: the moved tensor for transfers and
	// evictions, the output tensor for kernels.
	Tensor uint64
	// Start and End are simulated seconds.
	Start, End float64
	// Bytes is the payload for transfers/evictions. A fault moves nothing,
	// so an event with a fault code keeps the fault's argument here instead,
	// its bits reinterpreted; read it through faultArg.
	Bytes int64
	// FLOPs is the work of a kernel.
	FLOPs int64
}

// faultArg is the argument of the event's fault code, kept in its Bytes
// field; 0 when the event records no fault.
func (e *Event) faultArg() uint64 {
	if e.Fault == FaultNone {
		return 0
	}
	return uint64(e.Bytes)
}

// Duration returns the event length in seconds.
func (e Event) Duration() float64 { return e.End - e.Start }

// Note describes a fault event ("device-loss", "link-degrade x0.25", ...);
// empty for ordinary simulator events.
func (e Event) Note() string { return string(appendNote(nil, e.Fault, e.faultArg())) }

// appendNote appends the note of fault code with argument arg, as fmt's %g
// and %d wrote it when the note was a string: strconv's shortest 'g' form is
// what %g prints for a float64. An unknown code appends nothing.
func appendNote(b []byte, code FaultCode, arg uint64) []byte {
	if int(code) >= len(faultNames) {
		return b
	}
	b = append(b, faultNames[code]...)
	switch code {
	case FaultLinkDegrade:
		b = strconv.AppendFloat(b, math.Float64frombits(arg), 'g', -1, 64)
	case FaultMemCapacity, FaultTransientTransfer:
		b = strconv.AppendInt(b, int64(arg), 10)
	}
	return b
}

// parseNote inverts appendNote: it accepts exactly the notes appendNote
// writes ("" for FaultNone) and reports ok=false for anything else.
func parseNote(s string) (FaultCode, uint64, bool) {
	if s == "" {
		return FaultNone, 0, true
	}
	for c := FaultDeviceLoss; int(c) < len(faultNames); c++ {
		rest, found := strings.CutPrefix(s, faultNames[c])
		if !found {
			continue
		}
		// A parse error is caught below with every other non-canonical
		// spelling ("x0.250", "+3"): none renders back as it was written.
		var arg uint64
		switch c {
		case FaultLinkDegrade:
			f, _ := strconv.ParseFloat(rest, 64)
			arg = math.Float64bits(f)
		case FaultMemCapacity, FaultTransientTransfer:
			n, _ := strconv.ParseInt(rest, 10, 64)
			arg = uint64(n)
		}
		if string(appendNote(nil, c, arg)) == s {
			return c, arg, true
		}
	}
	return FaultNone, 0, false
}

// Flight converts the event to the obs layer's flight-recorder mirror
// type (obs sits below gpusim, so the conversion lives here). The struct
// is built on the caller's stack — recording an ordinary event allocates
// nothing; a fault's note is rendered here, and its Bytes is 0: the
// argument is in the note.
func (e Event) Flight() obs.FlightEvent {
	fe := obs.FlightEvent{
		Kind:   e.Kind.String(),
		Device: int(e.Device),
		Tensor: e.Tensor,
		Start:  e.Start,
		End:    e.End,
		Bytes:  e.Bytes,
		FLOPs:  e.FLOPs,
	}
	if e.Fault != FaultNone {
		fe.Bytes, fe.Note = 0, e.Note()
	}
	return fe
}

// ParseEventKind resolves an event-kind name produced by EventKind.String.
func ParseEventKind(s string) (EventKind, bool) {
	for k := EventKind(0); int(k) < numEventKinds; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// EventFromFlight converts a flight-recorder event back to a simulator
// event, parsing a fault's note back into its code and argument. Events
// with an unknown kind name, a note Event.Note does not write, or a device
// outside an int32 report ok=false.
func EventFromFlight(fe obs.FlightEvent) (Event, bool) {
	k, kindOK := ParseEventKind(fe.Kind)
	code, arg, noteOK := parseNote(fe.Note)
	e := Event{
		Kind:   k,
		Fault:  code,
		Device: int32(fe.Device),
		Tensor: fe.Tensor,
		Start:  fe.Start,
		End:    fe.End,
		Bytes:  fe.Bytes,
		FLOPs:  fe.FLOPs,
	}
	if code != FaultNone {
		e.Bytes = int64(arg)
	}
	return e, kindOK && noteOK && int(e.Device) == fe.Device
}

// EventsFromFlight converts a flight-recorder snapshot's events back to
// simulator events, dropping any EventFromFlight rejects, so recorder contents
// feed the Chrome-trace writers and the report analyses directly.
func EventsFromFlight(fes []obs.FlightEvent) []Event {
	out := make([]Event, 0, len(fes))
	for _, fe := range fes {
		if e, ok := EventFromFlight(fe); ok {
			out = append(out, e)
		}
	}
	return out
}

// StartTrace begins recording events; any previously recorded events are
// dropped. Tracing survives Reset (events clear, recording continues). The
// log is allocated at the length of the cluster's previous finished trace: a
// repeat of a traced run never re-grows it, a first or longer one appends.
func (c *Cluster) StartTrace() {
	c.tracing = true
	c.traceEvents = make([]Event, 0, c.traceCap)
}

// StopTrace stops recording and returns the recorded events. The slice is
// the caller's: the cluster keeps only its length, for the next StartTrace.
func (c *Cluster) StopTrace() []Event {
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
func (c *Cluster) TraceEvents() []Event {
	if len(c.traceEvents) == 0 {
		return nil
	}
	out := make([]Event, len(c.traceEvents))
	copy(out, c.traceEvents)
	return out
}

// observing reports whether anyone consumes simulator events. Call sites
// guard emit on it, so the hot path with tracing and metrics both off never
// writes an event.
func (c *Cluster) observing() bool { return c.tracing || c.sink != nil }

// emit records one simulator event where it will be read — and hands the
// sink that one copy by pointer.
func (c *Cluster) emit(kind EventKind, dev int, tensor uint64, start, end float64, bytes, flops int64) {
	e := c.put(kind, dev, tensor, start, end, bytes, flops)
	if c.sink != nil {
		c.sink.observe(e)
	}
}

// put writes an event field by field into the trace log's next slot, or
// into the cluster's scratch event when only the sink listens, and returns
// it. Nothing is built elsewhere and copied in: the sink's loads then read
// what these stores wrote, word for word.
func (c *Cluster) put(kind EventKind, dev int, tensor uint64, start, end float64, bytes, flops int64) *Event {
	e := &c.scratch
	if c.tracing {
		n := len(c.traceEvents)
		if n < cap(c.traceEvents) {
			c.traceEvents = c.traceEvents[:n+1]
		} else {
			c.traceEvents = append(c.traceEvents, Event{})
		}
		e = &c.traceEvents[n]
	}
	e.Kind, e.Fault, e.Device, e.Tensor = kind, FaultNone, int32(dev), tensor
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
func WriteChromeTraceMerged(w io.Writer, events []Event, decisions []obs.DecisionRecord) error {
	return writeChromeTrace(w, events, decisions)
}

// writeChromeTrace appends each record into one reused buffer and hands it
// to one buffered writer. The format is the one fmt used to produce, byte
// for byte: a name as %q writes it (appendQuoted), a time in microseconds as
// %.3f does (appendFixed3), a count as %d does (AppendInt, AppendUint).
func writeChromeTrace(w io.Writer, events []Event, decisions []obs.DecisionRecord) error {
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
		if e.Kind == EventFault {
			// Faults render as process-scoped instants so Perfetto pins
			// them to the moment of injection rather than a duration bar.
			name = appendNote(append(name[:0], "fault "...), e.Fault, e.faultArg())
			buf = appendQuoted(append(buf[:0], `  {"name":`...), string(name))
			buf = appendFixed3(append(buf, `,"ph":"i","ts":`...), e.Start*1e6)
			buf = num(buf, `,"pid":`, int64(max(e.Device, 0)))
			buf = num(buf, `,"tid":0,"s":"p","args":{"device":`, int64(e.Device))
		} else {
			tid := int64(0) // kernel queue
			if e.Kind != EventKernel {
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
