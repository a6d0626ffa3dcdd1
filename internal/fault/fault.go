// Package fault defines deterministic fault-injection plans for the MICCO
// reproduction: typed events (device loss, device restore, link
// degradation, memory-capacity shrink, transient transfer failures) that
// the execution engine replays into the GPU simulator at exact positions
// of the contraction stream or at virtual times, plus the retry/backoff
// policy governing transient-failure recovery.
//
// A Plan is pure data — it knows nothing about clusters or schedulers.
// The sched engine consumes it through Options.FaultPlan, firing each
// event at most once at a deterministic pair boundary, so a faulted run
// is exactly reproducible from (workload, scheduler, plan).
package fault

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Kind classifies a fault event.
type Kind int

const (
	// DeviceLoss permanently removes a device: its residency drops, its
	// clocks freeze, and every unfinished output it produced is
	// re-scheduled onto the survivors.
	DeviceLoss Kind = iota
	// DeviceRestore returns a previously lost device to service with an
	// empty memory pool, clocks aligned to the current makespan.
	DeviceRestore
	// LinkDegrade scales all H2D/D2H/P2P bandwidth by Factor (e.g. 0.25
	// quarters throughput). Factor 1 restores full bandwidth.
	LinkDegrade
	// MemShrink caps Device's memory pool at Factor times the configured
	// capacity, evicting LRU blocks (with dirty write-back) until the
	// pool fits.
	MemShrink
	// TransientTransfer makes the next Failures operand fetches fail with
	// a retryable error; the engine retries them under the plan's Retry
	// policy, charging backoff to simulated time.
	TransientTransfer
)

// kindNames maps kinds to their JSON names.
var kindNames = map[Kind]string{
	DeviceLoss:        "device-loss",
	DeviceRestore:     "device-restore",
	LinkDegrade:       "link-degrade",
	MemShrink:         "mem-shrink",
	TransientTransfer: "transient-transfer",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// MarshalJSON renders the kind as its name, keeping plans self-describing.
func (k Kind) MarshalJSON() ([]byte, error) {
	s, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("fault: unknown kind %d", int(k))
	}
	return json.Marshal(s)
}

// UnmarshalJSON accepts both the name and the numeric form.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for kk, name := range kindNames {
			if name == s {
				*k = kk
				return nil
			}
		}
		return fmt.Errorf("fault: unknown kind %q", s)
	}
	var n int
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	if _, ok := kindNames[Kind(n)]; !ok {
		return fmt.Errorf("fault: unknown kind %d", n)
	}
	*k = Kind(n)
	return nil
}

// Event is one fault to inject. Exactly one trigger applies: when Time is
// positive the event fires at the first pair boundary whose simulated
// makespan has reached Time; otherwise it fires positionally, before pair
// Pair of stage Stage (Pair -1 means the start of the stage). Both
// triggers are checked at pair boundaries only, so a faulted run is a
// deterministic function of the plan.
type Event struct {
	Kind Kind `json:"kind"`
	// Stage/Pair position the event in the contraction stream (used when
	// Time is zero). Pair -1 fires at the start of the stage.
	Stage int `json:"stage,omitempty"`
	Pair  int `json:"pair,omitempty"`
	// Time, when positive, fires the event at the first pair boundary
	// where the cluster makespan (simulated seconds) has reached it.
	Time float64 `json:"time,omitempty"`
	// Device is the subject device for DeviceLoss, DeviceRestore and
	// MemShrink.
	Device int `json:"device,omitempty"`
	// Factor is the bandwidth multiplier for LinkDegrade (positive; 1
	// restores full speed) or the remaining capacity fraction for
	// MemShrink (in (0,1]).
	Factor float64 `json:"factor,omitempty"`
	// Failures is how many consecutive operand fetches fail for
	// TransientTransfer.
	Failures int `json:"failures,omitempty"`
}

// Retry is the capped exponential backoff policy for transient transfer
// failures: attempt n (1-based) backs off min(BaseSeconds*2^(n-1),
// CapSeconds) simulated seconds; after Max failed attempts the error
// surfaces as fatal.
type Retry struct {
	Max         int     `json:"max"`
	BaseSeconds float64 `json:"base_seconds"`
	CapSeconds  float64 `json:"cap_seconds"`
}

// DefaultRetry is the policy used when a plan specifies none: eight
// attempts from 1 ms doubling to a 50 ms cap.
func DefaultRetry() Retry {
	return Retry{Max: 8, BaseSeconds: 1e-3, CapSeconds: 50e-3}
}

// Backoff returns the simulated backoff charged before retry attempt n
// (1-based): BaseSeconds doubling per attempt, capped at CapSeconds.
func (r Retry) Backoff(attempt int) float64 {
	if attempt < 1 {
		attempt = 1
	}
	d := r.BaseSeconds
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= r.CapSeconds {
			return r.CapSeconds
		}
	}
	if d > r.CapSeconds {
		return r.CapSeconds
	}
	return d
}

// Plan is a deterministic fault schedule. Events fire at most once each,
// in declaration order when several become due at the same boundary.
type Plan struct {
	// Seed records the generator seed for provenance (Generate); the
	// engine does not draw randomness from it.
	Seed int64 `json:"seed,omitempty"`
	// Retry overrides the transient-failure retry policy; nil selects
	// DefaultRetry.
	Retry  *Retry  `json:"retry,omitempty"`
	Events []Event `json:"events"`
}

// RetryPolicy resolves the plan's retry policy, substituting defaults for
// a nil override.
func (p *Plan) RetryPolicy() Retry {
	if p == nil || p.Retry == nil {
		return DefaultRetry()
	}
	return *p.Retry
}

// ErrInvalidPlan marks a plan Validate refuses: nil, an unknown kind, a bad
// position, device, factor or failure count, or a bad retry policy.
var ErrInvalidPlan = errors.New("fault: invalid plan")

// Validate checks the plan against a cluster of numDevices devices. Every
// refusal wraps ErrInvalidPlan.
func (p *Plan) Validate(numDevices int) error {
	if p == nil {
		return fmt.Errorf("%w: nil", ErrInvalidPlan)
	}
	if r := p.Retry; r != nil {
		if r.Max < 0 {
			return fmt.Errorf("%w: retry max %d must be non-negative", ErrInvalidPlan, r.Max)
		}
		if !(r.BaseSeconds > 0 && r.BaseSeconds <= r.CapSeconds && r.CapSeconds <= math.MaxFloat64) {
			return fmt.Errorf("%w: retry backoff (base %v, cap %v) must satisfy 0 < base <= cap < +Inf",
				ErrInvalidPlan, r.BaseSeconds, r.CapSeconds)
		}
	}
	for i, e := range p.Events {
		if _, ok := kindNames[e.Kind]; !ok {
			return fmt.Errorf("%w: event %d: unknown kind %d", ErrInvalidPlan, i, int(e.Kind))
		}
		if !(e.Time >= 0 && e.Time <= math.MaxFloat64) {
			return fmt.Errorf("%w: event %d: time %v must be non-negative and finite", ErrInvalidPlan, i, e.Time)
		}
		if e.Stage < 0 || e.Pair < -1 {
			return fmt.Errorf("%w: event %d: position stage %d pair %d out of range", ErrInvalidPlan, i, e.Stage, e.Pair)
		}
		switch e.Kind {
		case DeviceLoss, DeviceRestore, MemShrink:
			if e.Device < 0 || e.Device >= numDevices {
				return fmt.Errorf("%w: event %d: device %d out of range [0,%d)", ErrInvalidPlan, i, e.Device, numDevices)
			}
		}
		switch e.Kind {
		case LinkDegrade:
			if !(e.Factor > 0 && e.Factor <= math.MaxFloat64) {
				return fmt.Errorf("%w: event %d: link-degrade factor %v must be positive and finite", ErrInvalidPlan, i, e.Factor)
			}
		case MemShrink:
			if !(e.Factor > 0 && e.Factor <= 1) {
				return fmt.Errorf("%w: event %d: mem-shrink factor %v must be in (0,1]", ErrInvalidPlan, i, e.Factor)
			}
		case TransientTransfer:
			if e.Failures < 1 {
				return fmt.Errorf("%w: event %d: transient-transfer needs failures >= 1, got %d", ErrInvalidPlan, i, e.Failures)
			}
		}
	}
	return nil
}

// Load parses a JSON fault plan. Unknown fields are rejected so a typo in
// a hand-written plan fails loudly instead of silently injecting nothing.
func Load(r io.Reader) (*Plan, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Plan
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("fault: parse plan: %w", err)
	}
	return &p, nil
}

// Save serializes a plan as indented JSON.
func Save(w io.Writer, p *Plan) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// GenConfig parameterizes Generate.
type GenConfig struct {
	// Seed drives every random choice; equal configs generate equal plans.
	Seed int64
	// Stages and PairsPerStage bound the positional triggers.
	Stages        int
	PairsPerStage int
	// Devices is the cluster size. Device 0 is never lost, so a generated
	// plan can always run to completion.
	Devices int
	// Events is how many fault events to generate.
	Events int
}

// Generate builds a randomized but deterministic plan: Events events of
// mixed kinds at random positions, never losing device 0 (so at least one
// survivor always remains) and restoring roughly half of the lost devices
// later in the run.
func Generate(cfg GenConfig) *Plan {
	rng := rand.New(rand.NewSource(cfg.Seed))
	p := &Plan{Seed: cfg.Seed}
	pos := func(e *Event) {
		e.Stage = rng.Intn(max(cfg.Stages, 1))
		e.Pair = rng.Intn(max(cfg.PairsPerStage, 1)+1) - 1 // -1 = stage start
	}
	lost := make([]int, 0, cfg.Devices)
	for len(p.Events) < cfg.Events {
		var e Event
		switch rng.Intn(4) {
		case 0:
			if cfg.Devices < 2 {
				continue
			}
			e = Event{Kind: DeviceLoss, Device: 1 + rng.Intn(cfg.Devices-1)}
			lost = append(lost, e.Device)
		case 1:
			e = Event{Kind: LinkDegrade, Factor: 0.25 + 0.75*rng.Float64()}
		case 2:
			e = Event{Kind: MemShrink, Device: rng.Intn(max(cfg.Devices, 1)), Factor: 0.5 + 0.5*rng.Float64()}
		case 3:
			e = Event{Kind: TransientTransfer, Failures: 1 + rng.Intn(3)}
		}
		pos(&e)
		p.Events = append(p.Events, e)
		// Occasionally bring a lost device back at a later position.
		if len(lost) > 0 && rng.Intn(2) == 0 && len(p.Events) < cfg.Events {
			r := Event{Kind: DeviceRestore, Device: lost[len(lost)-1]}
			lost = lost[:len(lost)-1]
			pos(&r)
			p.Events = append(p.Events, r)
		}
	}
	return p
}
