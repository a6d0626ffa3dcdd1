package report

import (
	"sort"

	"micco/internal/obs"
)

// DriftGroup aggregates the predicted-vs-actual transfer drift of one
// (policy, reuse pattern) cell of the decision records. Predicted bytes
// are the engine's pre-placement estimate of operand movement; actual
// bytes are the H2D+P2P volume the simulator charged. The gap between
// them is the blind spot of the scheduler's cost model: evictions it
// forced, operands a peer supplied, write-backs it triggered.
type DriftGroup struct {
	Policy  string `json:"policy"`
	Pattern string `json:"pattern"`
	Count   int    `json:"count"`
	// Recovery counts re-placements performed by the failure-recovery path.
	Recovery       int   `json:"recovery,omitempty"`
	PredictedBytes int64 `json:"predicted_bytes"`
	ActualBytes    int64 `json:"actual_bytes"`
	// BiasBytes is actual minus predicted (positive = the model
	// under-predicted); AbsErrBytes sums |actual - predicted| per record,
	// so mutually cancelling errors still show up.
	BiasBytes   int64 `json:"bias_bytes"`
	AbsErrBytes int64 `json:"abs_err_bytes"`
	// Exact counts records whose prediction matched the charge exactly.
	Exact int `json:"exact"`
}

// MeanAbsErrBytes is the group's mean absolute prediction error.
func (g DriftGroup) MeanAbsErrBytes() float64 {
	if g.Count == 0 {
		return 0
	}
	return float64(g.AbsErrBytes) / float64(g.Count)
}

// Drift is the full drift summary: one group per (policy, pattern) cell
// plus the run-wide total.
type Drift struct {
	Groups []DriftGroup `json:"groups"`
	Total  DriftGroup   `json:"total"`
}

// SummarizeDrift aggregates decision records into the drift summary.
// Groups are sorted by policy then pattern name.
func SummarizeDrift(recs []obs.DecisionRecord) *Drift {
	type key struct {
		policy  obs.Policy
		pattern obs.ReusePattern
	}
	acc := map[key]*DriftGroup{}
	d := &Drift{Total: DriftGroup{Policy: "total", Pattern: "all"}}
	add := func(g *DriftGroup, r obs.DecisionRecord) {
		g.Count++
		if r.Recovery {
			g.Recovery++
		}
		g.PredictedBytes += r.PredictedBytes
		g.ActualBytes += r.ActualBytes
		err := r.ActualBytes - r.PredictedBytes
		g.BiasBytes += err
		if err < 0 {
			err = -err
		}
		g.AbsErrBytes += err
		if err == 0 {
			g.Exact++
		}
	}
	for _, r := range recs {
		k := key{r.Policy, r.Pattern}
		g := acc[k]
		if g == nil {
			g = &DriftGroup{Policy: k.policy.String(), Pattern: k.pattern.String()}
			acc[k] = g
		}
		add(g, r)
		add(&d.Total, r)
	}
	for _, g := range acc {
		d.Groups = append(d.Groups, *g)
	}
	sort.Slice(d.Groups, func(i, j int) bool {
		if d.Groups[i].Policy != d.Groups[j].Policy {
			return d.Groups[i].Policy < d.Groups[j].Policy
		}
		return d.Groups[i].Pattern < d.Groups[j].Pattern
	})
	return d
}

func (d *Drift) writeText(t *tw) {
	t.printf("prediction drift (predicted vs actual transfer bytes per decision)\n")
	t.printf("  %-18s %-16s %6s %5s %14s %14s %14s %12s %6s\n",
		"policy", "pattern", "n", "rec", "predicted", "actual", "bias", "meanAbsErr", "exact%")
	row := func(g DriftGroup) {
		t.printf("  %-18s %-16s %6d %5d %14d %14d %+14d %12.1f %6.1f\n",
			g.Policy, g.Pattern, g.Count, g.Recovery,
			g.PredictedBytes, g.ActualBytes, g.BiasBytes,
			g.MeanAbsErrBytes(), pct(float64(g.Exact), float64(g.Count)))
	}
	for _, g := range d.Groups {
		row(g)
	}
	row(d.Total)
}
