package manifest

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"micco"
)

// deck is the bundled f0d2 correlator deck miccoreport's golden report runs.
var deck = filepath.Join("..", "..", "cmd", "miccoreport", "testdata", "f0d2.deck.json")

// workloadFile writes a small generated workload file and returns its path
// and working set in bytes.
func workloadFile(t *testing.T) (string, int64) {
	t.Helper()
	w, err := micco.GenerateWorkload(micco.WorkloadConfig{
		Seed: 3, Stages: 4, VectorSize: 8, TensorDim: 64, Batch: 2,
		Rank: micco.RankMeson, RepeatRate: 0.5, Dist: micco.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, w.TotalUniqueBytes()
}

// TestResolve covers each rule the manifest owns once: the pair stream
// comes from exactly one of a workload file and a deck, a file decodes
// through the validating constructor, a scheduler must be known and must
// not need a trained predictor, and the pool is the working set plus 10%
// unless -mem sizes it.
func TestResolve(t *testing.T) {
	file, workingSet := workloadFile(t)
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(m *Manifest)
		// want is a substring of the error, or "" for a run whose pool is
		// pool bytes (-1: the deck's working set plus 10%).
		want string
		pool int64
	}{
		{"file", func(m *Manifest) {}, "", int64(1.1 * float64(workingSet))},
		{"deck", func(m *Manifest) { m.Workload, m.Deck = "", deck }, "", -1},
		{"both", func(m *Manifest) { m.Deck = deck }, "pick one of -workload and -deck", 0},
		{"neither", func(m *Manifest) { m.Workload = "" }, "-workload is required", 0},
		{"unreadable file", func(m *Manifest) { m.Workload = filepath.Join(t.TempDir(), "nosuch.json") }, "no such file", 0},
		{"bad JSON", func(m *Manifest) { m.Workload = bad }, "parse workload " + bad, 0},
		{"unknown scheduler", func(m *Manifest) { m.Scheduler = "heft" }, "heft", 0},
		{"needs a predictor", func(m *Manifest) { m.Scheduler = "micco-optimal" }, `scheduler "micco-optimal" needs a trained predictor`, 0},
		{"explicit -mem", func(m *Manifest) { m.MemGiB = 0.5 }, "", 1 << 29},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := Manifest{Workload: file, Scheduler: "micco", Bounds: micco.Bounds{0, 2, 0}, GPUs: 4}
			c.edit(&m)
			w, s, cluster, err := m.Resolve()
			if c.want != "" {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("err = %v, want one saying %q", err, c.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if w.NumPairs() == 0 || s.Name() == "" || cluster.NumDevices() != 4 {
				t.Fatalf("resolved %d pairs, scheduler %q, %d devices", w.NumPairs(), s.Name(), cluster.NumDevices())
			}
			got := cluster.Config().MemoryBytes
			if c.pool < 0 {
				c.pool = int64(1.1 * float64(w.TotalUniqueBytes()))
			}
			if got != c.pool {
				t.Errorf("pool %d bytes, want %d", got, c.pool)
			}
		})
	}
}

// TestResolveRefusesBadMem: -mem is 0 (fit the working set) or a finite
// positive size whose byte count fits in an int64; anything else is refused
// with an error that says what is wrong, before the workload is read.
func TestResolveRefusesBadMem(t *testing.T) {
	for _, c := range []struct {
		gib  float64
		want string
	}{
		{-1, "must be 0 (fit the working set) or a positive size"},
		{math.NaN(), "must be 0 (fit the working set) or a positive size"},
		{math.Inf(-1), "must be 0 (fit the working set) or a positive size"},
		{1e30, "does not fit in an int64"},
		{math.Inf(1), "does not fit in an int64"},
		{1 << 33, "does not fit in an int64"},
		{1e-12, "smaller than one byte"},
	} {
		m := Manifest{Workload: "nosuch.json", Scheduler: "micco", GPUs: 4, MemGiB: c.gib}
		if _, _, _, err := m.Resolve(); err == nil || !strings.Contains(err.Error(), c.want) || !strings.HasPrefix(err.Error(), "-mem ") {
			t.Errorf("-mem %v: err = %v, want one naming -mem and saying %q", c.gib, err, c.want)
		}
	}
}

// TestBind: the shared flags and their defaults, the same in both commands.
func TestBind(t *testing.T) {
	var m Manifest
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	m.Bind(fs)
	want := Manifest{Scheduler: "micco", Bounds: micco.Bounds{0, 2, 0}, GPUs: 8}
	if m != want {
		t.Errorf("defaults %+v, want %+v", m, want)
	}
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if got := strings.Join(names, " "); got != "bounds gpus mem scheduler workload" {
		t.Errorf("flags %q", got)
	}
	if err := fs.Parse([]string{"-workload", "w.json", "-scheduler", "groute", "-bounds", "1,3,1", "-gpus", "2", "-mem", "0.5"}); err != nil {
		t.Fatal(err)
	}
	want = Manifest{Workload: "w.json", Scheduler: "groute", Bounds: micco.Bounds{1, 3, 1}, GPUs: 2, MemGiB: 0.5}
	if m != want {
		t.Errorf("parsed %+v, want %+v", m, want)
	}
}
