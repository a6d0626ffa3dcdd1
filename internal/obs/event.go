package obs

import (
	"fmt"
	"math"
	"strconv"
)

// EventKind classifies a simulator event. One byte wide: with the fault code
// beside it and an int32 device, an Event is six words.
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

// NumEventKinds is the number of EventKind values (EventFault is last).
const NumEventKinds = int(EventFault) + 1

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

// FaultCode names the injected fault an EventFault records.
type FaultCode uint8

const (
	// FaultNone marks every event that is not a fault.
	FaultNone FaultCode = iota
	// FaultDeviceLoss is the simulator's FailDevice: "device-loss".
	FaultDeviceLoss
	// FaultDeviceRestore is its RestoreDevice: "device-restore".
	FaultDeviceRestore
	// FaultLinkDegrade is its DegradeLink; the argument is the factor's
	// math.Float64bits: "link-degrade x0.25".
	FaultLinkDegrade
	// FaultMemCapacity is its SetMemoryCapacity; the argument is the
	// capacity in bytes: "mem-capacity 524288".
	FaultMemCapacity
	// FaultTransientTransfer is its InjectTransientFailures; the argument
	// is the failure count: "transient-transfer x3".
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

// Event is one simulated operation on a device timeline, as the simulator
// emits it, its trace log keeps it and the flight recorder retains it: 48
// bytes that hold no pointer — a fault's description is a code and one
// argument, rendered by Note — so a trace log or a recorder ring is memory
// the garbage collector never scans.
type Event struct {
	Kind EventKind
	// Fault is the injected fault of an EventFault (FaultNone on every
	// other event); see the FaultCode constants for its argument.
	Fault FaultCode
	// Device is the device's index; the simulator's configuration caps the
	// count well inside an int32.
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
func (e Event) Note() string { return string(e.AppendNote(nil)) }

// AppendNote appends the event's Note to b, as fmt's %g and %d wrote it
// when the note was a string: strconv's shortest 'g' form is what %g prints
// for a float64. An ordinary event or an unknown code appends nothing.
func (e *Event) AppendNote(b []byte) []byte {
	if int(e.Fault) >= len(faultNames) {
		return b
	}
	b = append(b, faultNames[e.Fault]...)
	switch arg := e.faultArg(); e.Fault {
	case FaultLinkDegrade:
		b = strconv.AppendFloat(b, math.Float64frombits(arg), 'g', -1, 64)
	case FaultMemCapacity, FaultTransientTransfer:
		b = strconv.AppendInt(b, int64(arg), 10)
	}
	return b
}

// MarshalJSON writes the event as a flight dump keeps it: the kind by
// name, then device, tensor and times, then bytes, flops and the fault's
// note, each left out when empty. A fault writes its note and no bytes:
// its argument is in the note. A non-finite time fails as encoding/json
// fails on it.
func (e Event) MarshalJSON() ([]byte, error) {
	for _, f := range [...]float64{e.Start, e.End} {
		if !finite(f) {
			return nil, unsupportedFloat(f)
		}
	}
	b := make([]byte, 0, 128)
	b = AppendJSONString(append(b, `{"kind":`...), e.Kind.String())
	b = strconv.AppendInt(append(b, `,"device":`...), int64(e.Device), 10)
	b = strconv.AppendUint(append(b, `,"tensor":`...), e.Tensor, 10)
	b = AppendJSONFloat(append(b, `,"start":`...), e.Start)
	b = AppendJSONFloat(append(b, `,"end":`...), e.End)
	if e.Bytes != 0 && e.Fault == FaultNone {
		b = strconv.AppendInt(append(b, `,"bytes":`...), e.Bytes, 10)
	}
	if e.FLOPs != 0 {
		b = strconv.AppendInt(append(b, `,"flops":`...), e.FLOPs, 10)
	}
	if note := e.Note(); note != "" {
		b = AppendJSONString(append(b, `,"note":`...), note)
	}
	return append(b, '}'), nil
}
