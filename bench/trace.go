package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"micco/internal/sched"
	"micco/internal/workload"
)

// How a span's time was obtained. Only direct and wrapped spans happen
// inside a traced job and enter its self-time partition; replayed and
// differential spans come from extra runs after the jobs and split a
// direct span further without ever being added to a job total.
const (
	direct       = "direct"       // the call itself was timed
	wrapped      = "wrapped"      // timed by a decorator the bench hands to the program
	replayed     = "replayed"     // the recorded calls were re-issued from outside
	differential = "differential" // same job with one feature off, subtracted
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch. Busy is the time the span's own calls were
// executing: End-Start for a single call, the sum of call durations for an
// aggregated span (one per stage of Assign calls, Calls > 1), which is why
// self times are computed from Busy, not from End-Start.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"` // 0 = no parent
	Job       int    `json:"job"`    // 0 = measured after the traced jobs
	Layer     string `json:"layer"`
	Name      string `json:"name"`
	Technique string `json:"technique"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Busy      int64  `json:"busy_ns"`
	Calls     int    `json:"calls"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: every method is a no-op, so jobs call it
// unconditionally and the untraced pass pays one nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int // IDs of the open spans, innermost last
	job   int   // the traced job in progress, 0 between and after jobs
	jobs  int   // traced jobs begun so far
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a direct span under the innermost open span.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.top(), Job: t.job, Layer: layer, Name: name, Technique: direct, Start: t.now(), Calls: 1})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if t.top() != id {
		panic("bench: span closed out of order")
	}
	s := &t.spans[id-1]
	s.End = t.now()
	s.Busy = s.End - s.Start
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) top() int {
	if len(t.stack) == 0 {
		return 0
	}
	return t.stack[len(t.stack)-1]
}

// beginJob opens the root span of the next traced job.
func (t *tracer) beginJob(name string) int {
	if t == nil {
		return 0
	}
	t.jobs++
	t.job = t.jobs
	return t.begin("bench", name)
}

// endJob closes a job's root span and returns to the after-the-jobs state.
func (t *tracer) endJob(id int) {
	if t == nil {
		return
	}
	t.end(id)
	t.job = 0
}

// aggregate records calls wrapped calls, busy nanoseconds in total, made
// between start and end, as one child of the innermost open span.
func (t *tracer) aggregate(layer, name string, start, end, busy int64, calls int) {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.top(), Job: t.job, Layer: layer, Name: name, Technique: wrapped, Start: start, End: end, Busy: busy, Calls: calls})
}

// extra times f as a replayed or differential measurement made after the
// traced jobs and returns its duration in milliseconds.
func (t *tracer) extra(layer, name, technique string, f func()) float64 {
	s := span{ID: len(t.spans) + 1, Layer: layer, Name: name, Technique: technique, Start: t.now(), Calls: 1}
	f()
	s.End = t.now()
	s.Busy = s.End - s.Start
	t.spans = append(t.spans, s)
	return float64(s.Busy) / 1e6
}

// selfTimes partitions one job's wall time over layers: a span's self time
// is its busy time minus its children's busy time, so the values sum to
// the job's root span exactly. It returns the per-layer sums and the root
// span's busy time, all in nanoseconds.
func (t *tracer) selfTimes(job int) (byLayer map[string]int64, total int64) {
	byLayer = make(map[string]int64)
	children := make(map[int]int64)
	for _, s := range t.spans {
		if s.Job == job {
			children[s.Parent] += s.Busy
		}
	}
	for _, s := range t.spans {
		if s.Job != job {
			continue
		}
		byLayer[s.Layer] += s.Busy - children[s.ID]
		if s.Parent == 0 {
			total = s.Busy
		}
	}
	return byLayer, total
}

// busyOf sums the busy time and calls of every traced job's spans with
// this name.
func (t *tracer) busyOf(name string) (busy int64, calls int) {
	for _, s := range t.spans {
		if s.Name == name && s.Job != 0 {
			busy += s.Busy
			calls += s.Calls
		}
	}
	return busy, calls
}

// write stores the spans as bench/out/spans-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+workload+".json"), data, 0o644)
}

// timedScheduler is the wrapped technique: a sched.Scheduler decorator that
// times BeginStage and Assign of the scheduler it wraps and counts Assign
// calls, emitting one aggregated span per stage. It forwards every call
// unchanged, so the run's assignments are the wrapped scheduler's.
type timedScheduler struct {
	inner sched.Scheduler
	tr    *tracer
	layer string

	first, last int64
	busy        int64
	calls       int
}

func (s *timedScheduler) Name() string { return s.inner.Name() }

func (s *timedScheduler) BeginStage(ctx *sched.Context) {
	s.flush()
	t0 := s.tr.now()
	s.inner.BeginStage(ctx)
	s.first, s.last = t0, s.tr.now()
	s.busy = s.last - t0
}

func (s *timedScheduler) Assign(p workload.Pair, ctx *sched.Context) int {
	t0 := s.tr.now()
	dev := s.inner.Assign(p, ctx)
	s.last = s.tr.now()
	s.busy += s.last - t0
	s.calls++
	return dev
}

// flush emits the finished stage's span; the caller flushes once more
// after sched.Run returns, inside the run's span.
func (s *timedScheduler) flush() {
	if s.calls > 0 {
		s.tr.aggregate(s.layer, s.layer+".Assign", s.first, s.last, s.busy, s.calls)
	}
	s.busy, s.calls = 0, 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
