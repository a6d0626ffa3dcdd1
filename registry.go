package micco

import (
	"errors"
	"fmt"

	"micco/internal/baseline"
	"micco/internal/core"
	"micco/internal/hier"
)

// ErrUnknownScheduler marks a scheduler name absent from the registry.
var ErrUnknownScheduler = errors.New("unknown scheduler")

// schedulerEntry is one registry row: the scheduler's name, how to build it
// and what it needs.
type schedulerEntry struct {
	name           string
	needsPredictor bool
	build          func(b Bounds, p BoundsPredictor) Scheduler
}

// schedulerRegistry lists every scheduler in presentation order: MICCO
// variants first, then the two-level multi-node scheduler, then the
// baselines and ablations. The command-line tools resolve their -scheduler
// flags here, so adding a row makes a scheduler available everywhere at
// once.
var schedulerRegistry = []schedulerEntry{
	{name: "micco", build: func(b Bounds, _ BoundsPredictor) Scheduler { return core.NewFixed(b) }},
	{name: "micco-naive", build: func(Bounds, BoundsPredictor) Scheduler { return core.NewNaive() }},
	{name: "micco-optimal", needsPredictor: true,
		build: func(_ Bounds, p BoundsPredictor) Scheduler { return core.NewOptimal(p) }},
	{name: "hier", build: func(b Bounds, _ BoundsPredictor) Scheduler { return hier.New(16, b) }},
	{name: "groute", build: func(Bounds, BoundsPredictor) Scheduler { return baseline.NewGroute() }},
	{name: "roundrobin", build: func(Bounds, BoundsPredictor) Scheduler { return baseline.NewRoundRobin() }},
	{name: "locality", build: func(Bounds, BoundsPredictor) Scheduler { return baseline.NewLocalityOnly() }},
}

// lookupScheduler returns the registry row for name, or false.
func lookupScheduler(name string) (schedulerEntry, bool) {
	for _, e := range schedulerRegistry {
		if e.name == name {
			return e, true
		}
	}
	return schedulerEntry{}, false
}

// SchedulerNames lists every registered scheduler name in presentation
// order (MICCO variants, then baselines).
func SchedulerNames() []string {
	out := make([]string, len(schedulerRegistry))
	for i, e := range schedulerRegistry {
		out[i] = e.name
	}
	return out
}

// NewSchedulerByName builds a registered scheduler. b configures the
// fixed-bounds "micco" scheduler (ignored by the others); p supplies the
// trained model "micco-optimal" requires (ignored by the others, see
// SchedulerNeedsPredictor). Unknown names return ErrUnknownScheduler;
// "micco-optimal" with a nil predictor returns ErrNilArgument.
func NewSchedulerByName(name string, b Bounds, p BoundsPredictor) (Scheduler, error) {
	e, ok := lookupScheduler(name)
	if !ok {
		return nil, fmt.Errorf("micco: %w %q (have %v)", ErrUnknownScheduler, name, SchedulerNames())
	}
	if e.needsPredictor && p == nil {
		return nil, fmt.Errorf("micco: %w: scheduler %q requires a bounds predictor", ErrNilArgument, name)
	}
	return e.build(b, p), nil
}

// SchedulerNeedsPredictor reports whether the named scheduler requires a
// trained bounds predictor (false for unknown names).
func SchedulerNeedsPredictor(name string) bool {
	e, _ := lookupScheduler(name)
	return e.needsPredictor
}
