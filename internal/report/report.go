// Package report turns the raw observability artifacts of a run — the
// simulator event trace, scheduler decision records, and the metrics
// snapshot with its stage spans — into post-run analyses: the critical
// path through the simulated timeline with per-device and per-link blame
// shares, a per-stage utilization waterfall, a predicted-vs-actual drift
// summary of the scheduler's transfer estimates, and a regression diff of
// two metrics snapshots.
//
// Everything here is deterministic: analyses consume only simulated time
// and record contents (never the wall clock), slices are sorted with total
// orders, and the text and JSON renderings are byte-stable for identical
// inputs — which is what lets CI golden-check miccoreport output.
package report

import (
	"fmt"
	"io"

	"micco/internal/obs"
)

// Input is everything a report is built from. Events and Makespan drive
// the critical path and waterfall; Decisions drive the drift summary;
// Snapshot supplies the stage spans (simulated stage windows) and run
// totals. Any field may be zero — the corresponding sections are omitted.
type Input struct {
	// Scheduler and Workload label the report header.
	Scheduler string
	Workload  string
	// Devices is the cluster's device count (denominator of aggregate
	// utilization); zero infers the count from the highest device seen.
	Devices int
	// Makespan is the run's simulated makespan in seconds; zero infers the
	// latest event end.
	Makespan  float64
	Events    []obs.Event
	Decisions []obs.DecisionRecord
	Snapshot  *obs.Snapshot
}

// Report is a complete post-run analysis. Sections are nil when their
// input was absent.
type Report struct {
	Scheduler string  `json:"scheduler,omitempty"`
	Workload  string  `json:"workload,omitempty"`
	Devices   int     `json:"devices"`
	Makespan  float64 `json:"makespan"`

	CriticalPath *CriticalPath `json:"critical_path,omitempty"`
	Stages       []StageRow    `json:"stages,omitempty"`
	Drift        *Drift        `json:"drift,omitempty"`
}

// Build assembles the report from in, its sections on two goroutines.
func Build(in Input) *Report {
	makespan := in.Makespan
	devices := in.Devices
	for _, e := range in.Events {
		if e.End > makespan {
			makespan = e.End
		}
		if int(e.Device) >= devices {
			devices = int(e.Device) + 1
		}
	}
	r := &Report{
		Scheduler: in.Scheduler,
		Workload:  in.Workload,
		Devices:   devices,
		Makespan:  makespan,
	}
	// The sections only read in, so the waterfall and the drift run beside
	// the critical path, which costs more than both.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if in.Snapshot != nil {
			r.Stages = StageWaterfall(in.Snapshot.Spans, in.Events, devices)
		}
		if len(in.Decisions) > 0 {
			r.Drift = SummarizeDrift(in.Decisions)
		}
	}()
	if len(in.Events) > 0 || makespan > 0 {
		r.CriticalPath = CriticalPathOf(in.Events, makespan)
	}
	<-done
	return r
}

// WriteText renders the report as a fixed-layout text document.
func (r *Report) WriteText(w io.Writer) error {
	tw := &tw{w: w}
	tw.printf("micco report")
	if r.Workload != "" {
		tw.printf("  workload=%s", r.Workload)
	}
	if r.Scheduler != "" {
		tw.printf("  scheduler=%s", r.Scheduler)
	}
	tw.printf("\ndevices %d  makespan %.6fs\n", r.Devices, r.Makespan)
	if r.CriticalPath != nil {
		tw.printf("\n")
		r.CriticalPath.writeText(tw)
	}
	if len(r.Stages) > 0 {
		tw.printf("\n")
		writeStagesText(tw, r.Stages, r.Devices)
	}
	if r.Drift != nil {
		tw.printf("\n")
		r.Drift.writeText(tw)
	}
	return tw.err
}

// tw is a minimal error-latching writer: rendering code calls printf
// freely and checks err once at the end.
type tw struct {
	w   io.Writer
	err error
}

func (t *tw) printf(format string, args ...any) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

// pct renders part/whole as a percentage, 0 when whole is 0.
func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}
