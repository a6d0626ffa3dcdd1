package report

import (
	"encoding/json"
	"io"
	"sort"

	"micco/internal/obs"
)

// DiffRow is one series that differs between two metrics snapshots.
// Missing-in-old reads as 0 with Added set; missing-in-new sets Removed.
type DiffRow struct {
	Series  string  `json:"series"`
	Old     float64 `json:"old"`
	New     float64 `json:"new"`
	Delta   float64 `json:"delta"`
	Added   bool    `json:"added,omitempty"`
	Removed bool    `json:"removed,omitempty"`
}

// Diff is a regression comparison of two metrics snapshots (as written by
// miccorun -metrics): every counter, gauge and histogram sum/count whose
// value changed, plus how many series matched exactly. Feed it two runs of
// the same workload to see precisely which behavior moved — transfer
// bytes, evictions, reuse hits — independent of wall-clock noise.
type Diff struct {
	Counters   []DiffRow `json:"counters,omitempty"`
	Gauges     []DiffRow `json:"gauges,omitempty"`
	Histograms []DiffRow `json:"histograms,omitempty"`
	// Unchanged counts series equal in both snapshots.
	Unchanged int `json:"unchanged"`
}

// Changed reports whether any series differs.
func (d *Diff) Changed() bool {
	return len(d.Counters) > 0 || len(d.Gauges) > 0 || len(d.Histograms) > 0
}

// DiffSnapshots compares two snapshots series by series. Rows are sorted
// by series name. Nil snapshots compare as empty.
func DiffSnapshots(old, new *obs.Snapshot) *Diff {
	if old == nil {
		old = &obs.Snapshot{}
	}
	if new == nil {
		new = &obs.Snapshot{}
	}
	d := &Diff{}
	d.Counters = diffMaps(old.Counters, new.Counters, &d.Unchanged)
	d.Gauges = diffMaps(old.Gauges, new.Gauges, &d.Unchanged)
	d.Histograms = diffMaps(histSeries(old.Histograms), histSeries(new.Histograms), &d.Unchanged)
	return d
}

// histSeries flattens histograms to comparable scalar series: the _sum and
// _count of each.
func histSeries(hs map[string]obs.HistogramSnapshot) map[string]float64 {
	out := make(map[string]float64, 2*len(hs))
	for name, h := range hs {
		out[name+" sum"] = h.Sum
		out[name+" count"] = float64(h.Count)
	}
	return out
}

func diffMaps(old, new map[string]float64, unchanged *int) []DiffRow {
	names := make(map[string]bool, len(old)+len(new))
	for n := range old {
		names[n] = true
	}
	for n := range new {
		names[n] = true
	}
	var rows []DiffRow
	for n := range names {
		ov, inOld := old[n]
		nv, inNew := new[n]
		if inOld && inNew && ov == nv {
			*unchanged++
			continue
		}
		rows = append(rows, DiffRow{
			Series: n, Old: ov, New: nv, Delta: nv - ov,
			Added: !inOld, Removed: !inNew,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Series < rows[j].Series })
	return rows
}

// WriteJSON renders the diff as indented JSON.
func (d *Diff) WriteJSON(w io.Writer) error { return writeJSON(w, d) }

// WriteText renders the diff as a fixed-layout text document.
func (d *Diff) WriteText(w io.Writer) error {
	t := &tw{w: w}
	if !d.Changed() {
		t.printf("no differences (%d series unchanged)\n", d.Unchanged)
		return t.err
	}
	section := func(label string, rows []DiffRow) {
		if len(rows) == 0 {
			return
		}
		t.printf("%s (%d changed)\n", label, len(rows))
		for _, r := range rows {
			mark := ""
			if r.Added {
				mark = "  [added]"
			} else if r.Removed {
				mark = "  [removed]"
			}
			t.printf("  %-64s %16.6g -> %16.6g  (%+.6g)%s\n", r.Series, r.Old, r.New, r.Delta, mark)
		}
	}
	section("counters", d.Counters)
	section("gauges", d.Gauges)
	section("histograms", d.Histograms)
	t.printf("%d series unchanged\n", d.Unchanged)
	return t.err
}

// writeJSON renders v as indented JSON and a newline in one write, or
// writes nothing when encoding/json refuses v (shared by the report and
// diff writers; map keys are sorted by encoding/json, keeping output
// stable).
func writeJSON(w io.Writer, v any) error {
	doc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(doc, '\n'))
	return err
}

// LoadSnapshot parses a metrics snapshot JSON file (miccorun -metrics).
func LoadSnapshot(r io.Reader) (*obs.Snapshot, error) {
	var s obs.Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}
