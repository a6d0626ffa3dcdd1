package report

import (
	"bytes"
	"context"
	"io"
	"testing"

	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// observedInput records the run the ladder's report_build workload reports
// on (bench/workloads.go: eight devices holding a sixteenth of the unique
// bytes, fixed-bounds MICCO, obs and trace on) at the given stage count and
// vector size. At report_build's 512 the run leaves about 2 270 events per
// stage; ten stages of 1024 are an observed_run job.
func observedInput(tb testing.TB, stages, vector int) Input {
	tb.Helper()
	w, err := workload.Generate(workload.Config{
		Seed: 2022, Stages: stages, VectorSize: vector,
		TensorDim: 384, Batch: 8, Rank: tensor.RankMeson,
		RepeatRate: 0.6, Dist: workload.Gaussian, ChainRate: 0.3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := gpusim.MI100(8)
	cfg.MemoryBytes = w.TotalUniqueBytes() / 16
	c, err := gpusim.NewCluster(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	c.StartTrace()
	reg := obs.New()
	res, err := sched.Run(context.Background(), w, core.NewFixed(core.Bounds{0, 2, 0}), c, sched.Options{Obs: reg})
	if err != nil {
		tb.Fatal(err)
	}
	return Input{
		Scheduler: res.Scheduler, Workload: res.Workload, Devices: c.NumDevices(),
		Makespan: res.Makespan, Events: c.StopTrace(), Decisions: reg.Decisions(), Snapshot: res.Metrics,
	}
}

// nestedEvents is the shape that costs the walk's backward scan the most
// in one step: n short events with a gap after each, and one long event
// over the later half of them. From the makespan the scan passes every
// short event the long one covers before it reaches the long one; below it
// every step finds a gap.
func nestedEvents(n int) ([]obs.Event, float64) {
	events := make([]obs.Event, 0, n+1)
	for i := 0; i < n; i++ {
		events = append(events, obs.Event{
			Kind: obs.EventKernel, Device: 1, Tensor: uint64(i),
			Start: float64(i), End: float64(i) + 0.5,
		})
	}
	makespan := float64(n)
	events = append(events, obs.Event{Kind: obs.EventH2D, Start: makespan / 2, End: makespan})
	return events, makespan
}

var sinkPath *CriticalPath

// BenchmarkCriticalPath measures CriticalPathOf on recorded traces of the
// observed run at three sizes, and on the nested shape. ns/event is the
// number to read: the walk is one sort plus linear work, so it stays flat
// where the walk it replaced grew with the event count.
func BenchmarkCriticalPath(b *testing.B) {
	run := func(name string, fixture func(*testing.B) ([]obs.Event, float64)) {
		b.Run(name, func(b *testing.B) {
			events, makespan := fixture(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkPath = CriticalPathOf(events, makespan)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
			b.ReportMetric(float64(len(events)), "events")
			b.ReportMetric(float64(len(sinkPath.Segments)), "segments")
		})
	}
	for _, size := range []struct {
		name   string
		stages int
	}{{"events=5k", 2}, {"events=20k", 9}, {"events=80k", 35}} {
		run(size.name, func(b *testing.B) ([]obs.Event, float64) {
			in := observedInput(b, size.stages, 512)
			return in.Events, in.Makespan
		})
	}
	run("nested", func(*testing.B) ([]obs.Event, float64) { return nestedEvents(20000) })
}

// BenchmarkReportRenderJSON measures Report.WriteJSON on the report of the
// 20k-event recording; the critical path's segments are nearly all of the
// document.
func BenchmarkReportRenderJSON(b *testing.B) {
	rep := Build(observedInput(b, 9, 512))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rep.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(rep.CriticalPath.Segments)), "segments")
}

// BenchmarkReportRenderJSONToBuffer renders the same report into a fresh
// bytes.Buffer every op, as a caller that keeps the document does. Its B/op
// against the doc-B metric, the document's length, is what rendering into
// memory costs beyond the document itself.
func BenchmarkReportRenderJSONToBuffer(b *testing.B) {
	rep := Build(observedInput(b, 9, 512))
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
		n = buf.Len()
	}
	b.ReportMetric(float64(n), "doc-B")
	b.ReportMetric(float64(len(rep.CriticalPath.Segments)), "segments")
}

// BenchmarkWriteChromeTrace measures the trace artifact of one observed_run
// ladder job: its 45 510 events and 10 240 decision records, merged, to a
// writer that keeps nothing.
func BenchmarkWriteChromeTrace(b *testing.B) {
	in := observedInput(b, 10, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := gpusim.WriteChromeTraceMerged(io.Discard, in.Events, in.Decisions); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(in.Events)+len(in.Decisions)), "records")
}
