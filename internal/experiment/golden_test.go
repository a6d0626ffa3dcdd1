package experiment

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ goldens from the tables the current code renders")

// TestTablesGolden pins every rendered table — each experiment of IDs plus
// "ext", in quick and in full mode at seed 2022 — byte for byte against
// testdata/, at Parallelism 1 and at the default pool. Every row of every
// figure is therefore an assertion: a refactor must move nothing, and a
// deliberate model change shows up as a golden diff to review (regenerate
// with `go test ./internal/experiment -run TestTablesGolden -update`).
// Tab. 5's two host wall-clock columns are masked. Full mode is skipped
// under -short and under the race detector, where quick mode covers the
// same code.
func TestTablesGolden(t *testing.T) {
	for _, mode := range []string{"quick", "full"} {
		t.Run(mode, func(t *testing.T) {
			if mode == "full" && (testing.Short() || raceEnabled) {
				t.Skip("full mode builds the 300-sample corpus: seconds, minutes under the race detector")
			}
			for _, par := range []int{1, 0} {
				h := New(Options{Quick: mode == "quick", Seed: 2022, Parallelism: par})
				for _, id := range append(IDs(), "ext") {
					tab, err := h.RunExperiment(context.Background(), id)
					if err != nil {
						t.Fatalf("%s at parallelism %d: %v", id, par, err)
					}
					if id == "tab5" {
						for _, row := range tab.Rows {
							row[1], row[3] = "(wall)", "(wall)"
						}
					}
					var got bytes.Buffer
					if err := tab.Render(&got); err != nil {
						t.Fatal(err)
					}
					path := filepath.Join("testdata", mode, id+".golden")
					if *update && par == 1 {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
							t.Fatal(err)
						}
						continue
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want) {
						t.Errorf("%s (%s mode, parallelism %d) differs from %s:\n-- got --\n%s-- want --\n%s",
							id, mode, par, path, got.Bytes(), want)
					}
				}
			}
		})
	}
}
