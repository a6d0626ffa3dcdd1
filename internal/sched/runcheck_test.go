package sched

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/report"
)

// The run checker holds what every Run of this package's tests leaves behind
// to rules that do not depend on the test; TestMain hangs it on afterRun
// beside the structural audit. A rule runs whenever the run has what it
// reads (DESIGN §19). With a trace: no two intervals overlap on one device
// engine or one link, and the critical path tiles [0, makespan]. With a
// registry, once every decision record it holds is from a run that has
// ended: one record per placement, the records' bytes and evictions sum to
// DeviceStats (unless a fault plan moved data outside any placement), a
// record without evictions moved what it predicted, the pattern counters
// count the records, and per EventKind the series equal the traces (unless a
// run without a trace fed it). A resumed run placed its replayed stages
// unrecorded, so its registry's rules stop.
type runChecker struct {
	mu       sync.Mutex
	accounts map[*obs.Registry]*account
}

// account is what the runs that ended on one registry put in it, by their
// own books: placements, bytes moved (H2D+P2P), written back, evictions, and
// per event kind the traces' events, bytes and seconds.
type account struct {
	placed, moved, d2h, evictions, flops int64
	kinds                                [obs.NumEventKinds]struct {
		n, bytes int64
		sec      float64
	}
	untraced, faulted, resumed bool
	settled                    bool // the rules ran on every run it holds
}

var runs = &runChecker{accounts: map[*obs.Registry]*account{}}

// check applies every rule the run can feed and returns the first broken.
func (rc *runChecker) check(e *engine, runErr error) error {
	c := e.c
	var events []obs.Event
	if c.Tracing() {
		events = c.TraceEvents()
		if err := checkTimelines(c, events); err != nil {
			return err
		}
		if err := checkCriticalPath(events, c.Makespan()); err != nil {
			return err
		}
	}
	reg := e.opts.Obs
	if reg == nil {
		return nil
	}
	if e.res.Metrics == nil {
		return errors.New("runcheck: a watched run has no snapshot")
	}
	if g := e.res.Metrics.Gauges["micco_run_makespan_seconds"]; runErr == nil && g != e.res.Makespan {
		return fmt.Errorf("runcheck: makespan gauge %v, the run's makespan %v", g, e.res.Makespan)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	a := rc.accounts[reg]
	if a == nil {
		a = &account{}
		rc.accounts[reg] = a
	}
	tot := c.TotalStats()
	a.placed += tot.Kernels
	a.moved += tot.H2DBytes + tot.P2PBytes
	a.d2h += tot.D2HBytes
	a.evictions += tot.Evictions
	a.untraced = a.untraced || !c.Tracing()
	a.faulted = a.faulted || e.opts.FaultPlan != nil
	a.resumed = a.resumed || e.opts.ResumeFrom != nil
	for i := range events {
		ev := &events[i]
		k := &a.kinds[ev.Kind]
		k.n, k.bytes, k.sec = k.n+1, k.bytes+ev.Bytes, k.sec+ev.Duration()
		if ev.Kind == obs.EventKernel {
			a.flops += ev.FLOPs
		}
	}
	return a.settle(reg)
}

// settle checks reg against a once every record reg holds is accounted for;
// with more, a run on reg is still in flight and its end settles.
func (a *account) settle(reg *obs.Registry) error {
	recs := reg.Decisions()
	n := int64(len(recs))
	a.settled = a.resumed || n == a.placed
	switch {
	case a.resumed || n > a.placed:
		return nil
	case n < a.placed:
		return fmt.Errorf("runcheck: %d decision records for %d placements", n, a.placed)
	}
	snap := reg.Snapshot()
	if snap.Decisions != len(recs) {
		return fmt.Errorf("runcheck: snapshot counts %d decisions, the registry holds %d", snap.Decisions, len(recs))
	}
	var moved, d2h, evictions, predicted int64
	var patterns [obs.NumReusePatterns]float64
	for i := range recs {
		r := &recs[i]
		moved, d2h, evictions, predicted = moved+r.ActualBytes, d2h+r.ActualD2HBytes, evictions+int64(r.Evictions), predicted+r.PredictedBytes
		patterns[r.Pattern]++
		// Operands are pinned and fetched once: only an eviction can make
		// a placement move more than it predicted.
		if r.Evictions == 0 && r.PredictedBytes != r.ActualBytes {
			return fmt.Errorf("runcheck: record %d predicted %d bytes and moved %d without evicting", i, r.PredictedBytes, r.ActualBytes)
		}
	}
	if !a.faulted && (moved != a.moved || d2h != a.d2h || evictions != a.evictions) {
		return fmt.Errorf("runcheck: records sum to %d moved, %d written back, %d evictions; DeviceStats to %d, %d, %d",
			moved, d2h, evictions, a.moved, a.d2h, a.evictions)
	}
	if predicted > moved {
		return fmt.Errorf("runcheck: records predicted %d bytes, moved %d", predicted, moved)
	}
	for p, n := range patterns {
		if got := snap.Counters[patternSeries[p]]; got != n {
			return fmt.Errorf("runcheck: %s = %v, the records hold %v", patternSeries[p], got, n)
		}
	}
	if a.untraced {
		return nil
	}
	for k := range a.kinds {
		want, kind := &a.kinds[k], `{kind="`+obs.EventKind(k).String()+`"}`
		events, bytes := snap.Counters["micco_sim_events_total"+kind], snap.Counters["micco_sim_bytes_total"+kind]
		busy, h := snap.Counters["micco_sim_busy_seconds_total"+kind], snap.Histograms["micco_sim_seconds"+kind]
		if events != float64(want.n) || h.Count != want.n || bytes != float64(want.bytes) || !near(busy, want.sec) || !near(h.Sum, want.sec) {
			return fmt.Errorf("runcheck: %s: %v events, %v bytes, %v s, histogram %d in %v s; the traces %d, %d, %v s",
				kind, events, bytes, busy, h.Count, h.Sum, want.n, want.bytes, want.sec)
		}
	}
	if got := snap.Counters["micco_sim_flops_total"]; got != float64(a.flops) {
		return fmt.Errorf("runcheck: flops = %v, the traced kernels did %d", got, a.flops)
	}
	return nil
}

// near allows a batched float sum the last-ulp differences of its order.
func near(got, want float64) bool {
	return got == want || math.Abs(got-want) <= 1e-12*math.Abs(want)
}

// unsettled reports a registry that, once every run has ended, holds
// records no run accounts for.
func (rc *runChecker) unsettled() error {
	for _, a := range rc.accounts {
		if !a.settled {
			return fmt.Errorf("runcheck: a registry holds more decision records than its %d placements", a.placed)
		}
	}
	return nil
}

// RegistrySettled is for a test whose runs share reg, once they have all
// ended: the checker must have held reg to the account of all of them.
func RegistrySettled(reg *obs.Registry) error {
	runs.mu.Lock()
	defer runs.mu.Unlock()
	if a := runs.accounts[reg]; a == nil || !a.settled {
		return errors.New("runcheck: the registry's runs are not all accounted for")
	}
	return nil
}

// checkTimelines holds every device engine — the compute and the copy
// engine with AsyncCopy, one without — and every link — a node's host link,
// a node's peer fabric, the interconnect — to one interval at a time. An
// engine's events are traced in its own order; a link's are booked in
// placement order, not time order (ROADMAP item 17), so they are sorted.
func checkTimelines(c *gpusim.Cluster, events []obs.Event) error {
	async := c.Config().AsyncCopy
	engines := make(map[[2]int]*obs.Event)
	links := make(map[[2]int][]*obs.Event)
	for i := range events {
		ev := &events[i]
		if ev.Kind == obs.EventFault {
			continue
		}
		engine := [2]int{int(ev.Device), 0}
		if async && ev.Kind != obs.EventKernel {
			engine[1] = 1
		}
		if prev := engines[engine]; prev != nil && overlaps(prev, ev) {
			return fmt.Errorf("runcheck: device %d engine %d: %v at [%v, %v] overlaps %v at [%v, %v]",
				engine[0], engine[1], ev.Kind, ev.Start, ev.End, prev.Kind, prev.Start, prev.End)
		}
		engines[engine] = ev
		link := [2]int{int(ev.Kind), c.NodeOf(int(ev.Device))}
		switch ev.Kind {
		case obs.EventD2H:
			link[0] = int(obs.EventH2D)
		case obs.EventInter:
			link[1] = 0
		}
		if ev.Kind != obs.EventKernel && ev.Kind != obs.EventEvict {
			links[link] = append(links[link], ev)
		}
	}
	for _, l := range links {
		slices.SortFunc(l, func(a, b *obs.Event) int { return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.End, b.End)) })
		last := l[0]
		for _, ev := range l[1:] {
			if overlaps(last, ev) {
				return fmt.Errorf("runcheck: %v of device %d at [%v, %v] overlaps %v of device %d at [%v, %v] on one link",
					ev.Kind, ev.Device, ev.Start, ev.End, last.Kind, last.Device, last.Start, last.End)
			}
			if ev.End > last.End {
				last = ev
			}
		}
	}
	return nil
}

// overlaps reports whether next starts before prev ends by more than the
// ulp of next's end that its traced start, end − dur, can lose (DESIGN §4).
func overlaps(prev, next *obs.Event) bool {
	return prev.End-next.Start > math.Nextafter(next.End, math.Inf(1))-next.End
}

// checkCriticalPath requires the critical path's segments to tile
// [0, makespan], boundaries equal bit for bit.
func checkCriticalPath(events []obs.Event, makespan float64) error {
	segs := report.CriticalPathOf(events, makespan).Segments
	at := 0.0
	for i, s := range segs {
		if s.Start != at || s.End < s.Start {
			return fmt.Errorf("runcheck: critical-path segment %d is [%v, %v], want it to start at %v", i, s.Start, s.End, at)
		}
		at = s.End
	}
	if len(segs) > 0 && at != makespan {
		return fmt.Errorf("runcheck: critical path ends at %v, makespan %v", at, makespan)
	}
	return nil
}
