package experiment

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
)

// quickHarness is shared across tests so corpus and model build once.
var quickHarness = New(Options{Quick: true, Seed: 7})

func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	tab, err := quickHarness.RunExperiment(context.Background(), id)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tab.ID != id {
		t.Errorf("table ID = %q, want %q", tab.ID, id)
	}
	if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	for i, row := range tab.Rows {
		if len(row) != len(tab.Columns) {
			t.Errorf("%s row %d has %d cells, want %d", id, i, len(row), len(tab.Columns))
		}
	}
	return tab
}

// cell parses a numeric cell, stripping x/% suffixes.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(s, "x"), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

func TestOptionsDefaults(t *testing.T) {
	h := New(Options{})
	if h.Options().Seed == 0 {
		t.Errorf("defaults not applied: %+v", h.Options())
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := quickHarness.RunExperiment(context.Background(), "fig99"); err == nil {
		t.Error("unknown experiment: want error")
	}
}

func TestIDsCoverEveryTableAndFigure(t *testing.T) {
	want := []string{"fig5", "tab4", "fig7", "tab5", "fig8", "fig9", "fig10", "fig11", "tab6"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestFig5HeatmapShape(t *testing.T) {
	tab := runQuick(t, "fig5")
	if len(tab.Rows) != 8 {
		t.Fatalf("heatmap rows = %d, want 8", len(tab.Rows))
	}
	for i, row := range tab.Rows {
		// Diagonal must be exactly +1.00; all cells within [-1, 1].
		if row[i+1] != "+1.00" {
			t.Errorf("diagonal %d = %s", i, row[i+1])
		}
		for _, c := range row[1:] {
			v := cell(t, c)
			if v < -1.0001 || v > 1.0001 {
				t.Errorf("coefficient %v out of range", v)
			}
		}
	}
	// Symmetry.
	for i := range tab.Rows {
		for j := range tab.Rows {
			if tab.Rows[i][j+1] != tab.Rows[j][i+1] {
				t.Errorf("heatmap not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestTab4Scores(t *testing.T) {
	tab := runQuick(t, "tab4")
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 models", len(tab.Rows))
	}
	// Quick mode's reduced corpus is noisy, so only sanity-bound the
	// scores here; the full-corpus ordering claims are asserted in the
	// autotune package's tests.
	for _, row := range tab.Rows {
		r2 := cell(t, row[1])
		if r2 < -1 || r2 > 1 {
			t.Errorf("%s R2 = %v: implausible", row[0], r2)
		}
	}
}

func TestFig7MICCOWins(t *testing.T) {
	tab := runQuick(t, "fig7")
	wins := 0
	for _, row := range tab.Rows {
		groute := cell(t, row[3])
		opt := cell(t, row[5])
		sp := cell(t, row[6])
		if opt > groute {
			wins++
		}
		if sp < 0.5 || sp > 5 {
			t.Errorf("implausible speedup %v", sp)
		}
	}
	if wins < len(tab.Rows)*3/4 {
		t.Errorf("MICCO-optimal beat Groute in only %d/%d configs", wins, len(tab.Rows))
	}
}

func TestTab5OverheadSmall(t *testing.T) {
	tab := runQuick(t, "tab5")
	for _, row := range tab.Rows {
		overhead := cell(t, row[1])
		total := cell(t, row[2])
		if overhead <= 0 || total <= 0 {
			t.Fatalf("degenerate timings %v / %v", overhead, total)
		}
		if overhead > total*0.25 {
			t.Errorf("scheduling overhead %vms vs total %vms: not lightweight", overhead, total)
		}
	}
}

func TestFig8AllSettingsMeasured(t *testing.T) {
	tab := runQuick(t, "fig8")
	// 13 settings + distribution + case + best columns.
	if len(tab.Columns) != 16 {
		t.Fatalf("columns = %d, want 16", len(tab.Columns))
	}
	for _, row := range tab.Rows {
		for _, c := range row[2 : len(row)-1] {
			if cell(t, c) <= 0 {
				t.Error("zero GFLOPS for a bound setting")
			}
		}
		if !strings.Contains(row[len(row)-1], "@") {
			t.Errorf("best cell %q malformed", row[len(row)-1])
		}
	}
}

func TestFig9SpeedupGrowsWithGPUs(t *testing.T) {
	tab := runQuick(t, "fig9")
	// Per distribution, the speedup at the largest GPU count must exceed
	// the speedup at one GPU (which is 1.0 by construction).
	byDist := map[string][]float64{}
	for _, row := range tab.Rows {
		byDist[row[0]] = append(byDist[row[0]], cell(t, row[4]))
	}
	for dist, sps := range byDist {
		if len(sps) < 2 {
			t.Fatalf("%s: too few GPU counts", dist)
		}
		if sps[0] != 1 {
			t.Errorf("%s: single-GPU speedup = %v, want 1.00", dist, sps[0])
		}
		if sps[len(sps)-1] <= sps[0] {
			t.Errorf("%s: speedup did not grow with GPUs: %v", dist, sps)
		}
	}
}

func TestFig10MICCOWinsAcrossSizes(t *testing.T) {
	tab := runQuick(t, "fig10")
	for _, row := range tab.Rows {
		if cell(t, row[4]) < 0.95 {
			t.Errorf("tensor size %s: speedup %s below parity", row[1], row[4])
		}
	}
}

func TestFig11ThroughputFallsWithOversubscription(t *testing.T) {
	tab := runQuick(t, "fig11")
	byDist := map[string][]float64{}
	for _, row := range tab.Rows {
		byDist[row[0]] = append(byDist[row[0]], cell(t, row[3]))
		// MICCO evicts no more than Groute.
		parts := strings.Split(row[5], "/")
		if len(parts) != 2 {
			t.Fatalf("eviction cell %q", row[5])
		}
		gr := cell(t, strings.TrimSpace(parts[0]))
		mc := cell(t, strings.TrimSpace(parts[1]))
		if mc > gr {
			t.Errorf("MICCO evictions %v exceed Groute %v", mc, gr)
		}
	}
	for dist, gfs := range byDist {
		if gfs[len(gfs)-1] >= gfs[0] {
			t.Errorf("%s: GFLOPS should fall as oversubscription grows: %v", dist, gfs)
		}
	}
}

func TestTab6RealCorrelators(t *testing.T) {
	tab := runQuick(t, "tab6")
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 correlators", len(tab.Rows))
	}
	names := map[string]bool{}
	for _, row := range tab.Rows {
		names[row[0]] = true
		if cell(t, row[2]) <= 0 || cell(t, row[3]) <= 0 {
			t.Errorf("%s: no graphs or contractions", row[0])
		}
		if sp := cell(t, row[7]); sp <= 1.0 {
			t.Errorf("%s: MICCO speedup %v, want > 1", row[0], sp)
		}
	}
	for _, want := range []string{"al_rhopi", "f0d2", "f0d4"} {
		if !names[want] {
			t.Errorf("missing correlator %s", want)
		}
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		ID: "t", Title: "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"x", "1"}, {"has,comma", `has"quote`}},
		Notes:   []string{"note one"},
	}
	var txt bytes.Buffer
	if err := tab.Render(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	for _, want := range []string{"== t: demo ==", "a", "note: note one"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tab.CSV(&csv); err != nil {
		t.Fatal(err)
	}
	cs := csv.String()
	if !strings.Contains(cs, `"has,comma"`) || !strings.Contains(cs, `"has""quote"`) {
		t.Errorf("CSV escaping wrong:\n%s", cs)
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	tabs, err := quickHarness.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != len(IDs()) {
		t.Errorf("RunAll produced %d tables, want %d", len(tabs), len(IDs()))
	}
}

func TestGeoMean(t *testing.T) {
	if g := geoMean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Errorf("geoMean = %v, want 4", g)
	}
	if g := geoMean([]float64{-1, 0}); g != 0 {
		t.Errorf("geoMean of non-positives = %v, want 0", g)
	}
	if g := geoMean(nil); g != 0 {
		t.Errorf("geoMean(nil) = %v", g)
	}
}

func TestExtExtensionsHelp(t *testing.T) {
	tab := runQuick(t, "ext")
	if len(tab.Rows) != 4 {
		t.Fatalf("extension rows = %d, want 4", len(tab.Rows))
	}
	for _, row := range tab.Rows[:3] {
		gain := cell(t, row[3])
		// Every single-node extension should be at worst mildly negative
		// and the data path extensions strictly positive on this workload.
		if gain < 0.9 {
			t.Errorf("%s gain %v: extension is badly counterproductive", row[0], gain)
		}
	}
	// The multi-node row runs hier against Groute on MI100Nodes(4, 2).
	// hier's node level scores device residency only, not node 0's host
	// copies, so it trails here (0.70x, pinned by the golden) until it
	// scores them; this only holds the row off a collapse.
	if gain := cell(t, tab.Rows[3][3]); gain < 0.6 {
		t.Errorf("%s gain %v: hier collapsed against Groute", tab.Rows[3][0], gain)
	}
	// Async copy and peer fetch should help outright.
	for _, i := range []int{0, 1} {
		if cell(t, tab.Rows[i][3]) <= 1.0 {
			t.Errorf("%s gain %s, want > 1", tab.Rows[i][0], tab.Rows[i][3])
		}
	}
}
