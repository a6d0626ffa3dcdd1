package report

import (
	"sort"
	"strconv"
	"strings"

	"micco/internal/gpusim"
	"micco/internal/obs"
)

// StageRow is one stage of the utilization waterfall: its simulated window
// (from the stage span's sim_start_s/sim_end_s attributes) and how the
// cluster spent it. BusySeconds sums every device's non-fault event time
// inside the window; Utilization normalizes by window x devices (1.0 =
// every device busy for the whole stage).
type StageRow struct {
	Index int     `json:"index"`
	Pairs int     `json:"pairs"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// ComputeSeconds / TransferSeconds / EvictSeconds partition
	// BusySeconds: kernels; h2d+d2h+p2p+inter; evictions.
	ComputeSeconds  float64 `json:"compute_seconds"`
	TransferSeconds float64 `json:"transfer_seconds"`
	EvictSeconds    float64 `json:"evict_seconds"`
	BusySeconds     float64 `json:"busy_seconds"`
	Utilization     float64 `json:"utilization"`
}

// Window returns the stage's simulated duration.
func (r StageRow) Window() float64 { return r.End - r.Start }

// StageWaterfall builds the per-stage utilization waterfall: one row per
// "stage" span carrying simulated-window attributes, with events clipped
// to each stage's window. Rows are sorted by stage index. Spans without
// the sim attributes (older artifacts) are skipped. The events are read
// once: each adds its clipped length to every window it overlaps, so a row
// sums its events in the order of the trace.
func StageWaterfall(spans []obs.Span, events []gpusim.Event, devices int) []StageRow {
	var rows []StageRow
	for _, sp := range spans {
		if sp.Name != "stage" || sp.Attrs == nil {
			continue
		}
		start, err1 := strconv.ParseFloat(sp.Attrs["sim_start_s"], 64)
		end, err2 := strconv.ParseFloat(sp.Attrs["sim_end_s"], 64)
		if err1 != nil || err2 != nil {
			continue
		}
		idx, _ := strconv.Atoi(sp.Attrs["index"])
		pairs, _ := strconv.Atoi(sp.Attrs["pairs"])
		rows = append(rows, StageRow{Index: idx, Pairs: pairs, Start: start, End: end})
	}
	for i := range events {
		e := &events[i]
		if e.Kind == gpusim.EventFault {
			continue
		}
		for j := range rows {
			row := &rows[j]
			// Clip the event to the stage window; recovery re-runs can make
			// an event span a boundary.
			s, t := e.Start, e.End
			if s < row.Start {
				s = row.Start
			}
			if t > row.End {
				t = row.End
			}
			if t <= s {
				continue
			}
			d := t - s
			switch e.Kind {
			case gpusim.EventKernel:
				row.ComputeSeconds += d
			case gpusim.EventEvict:
				row.EvictSeconds += d
			default:
				row.TransferSeconds += d
			}
			row.BusySeconds += d
		}
	}
	for j := range rows {
		row := &rows[j]
		if w := row.Window(); w > 0 && devices > 0 {
			row.Utilization = row.BusySeconds / (w * float64(devices))
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Index != rows[j].Index {
			return rows[i].Index < rows[j].Index
		}
		return rows[i].Start < rows[j].Start
	})
	return rows
}

// barWidth is the width of the waterfall's utilization bar.
const barWidth = 30

func writeStagesText(t *tw, rows []StageRow, devices int) {
	t.printf("stage waterfall (%d devices; bar = aggregate utilization)\n", devices)
	t.printf("  %5s %6s %12s %12s %10s %10s %8s %6s\n",
		"stage", "pairs", "start(s)", "window(s)", "compute(s)", "xfer(s)", "evict(s)", "util%")
	for _, r := range rows {
		fill := int(r.Utilization*barWidth + 0.5)
		if fill > barWidth {
			fill = barWidth
		}
		bar := strings.Repeat("#", fill) + strings.Repeat(".", barWidth-fill)
		t.printf("  %5d %6d %12.6f %12.6f %10.6f %10.6f %8.6f %6.1f |%s|\n",
			r.Index, r.Pairs, r.Start, r.Window(),
			r.ComputeSeconds, r.TransferSeconds, r.EvictSeconds,
			100*r.Utilization, bar)
	}
}
