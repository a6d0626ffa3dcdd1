// Package manifest is the one description of a simulated run that the run
// commands, miccorun and miccoreport, share: where the pair stream comes
// from, the scheduler and its reuse bounds, the device count and the
// per-device pool. Bind declares the shared flags; Resolve applies the
// rules both commands follow and builds what a run needs.
package manifest

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"micco"
)

// Manifest describes one run. Exactly one of Workload and Deck names the
// pair stream.
type Manifest struct {
	// Workload is a workload JSON file, as wgen writes it.
	Workload string
	// Deck is a correlator deck JSON file, compiled to a workload. Bind
	// leaves it to the commands that take a deck.
	Deck      string
	Scheduler string
	Bounds    micco.Bounds
	GPUs      int
	// MemGiB is the per-device pool in GiB; 0 sizes it to the working set
	// plus 10%.
	MemGiB float64
}

// Bind declares the five shared flags on fs, with their defaults.
func (m *Manifest) Bind(fs *flag.FlagSet) {
	fs.StringVar(&m.Workload, "workload", "", "workload JSON file (from wgen) to run")
	fs.StringVar(&m.Scheduler, "scheduler", "micco", "scheduler: "+strings.Join(micco.SchedulerNames(), ", "))
	fs.TextVar(&m.Bounds, "bounds", micco.Bounds{0, 2, 0}, "reuse bounds for the micco scheduler, e.g. 0,2,0")
	fs.IntVar(&m.GPUs, "gpus", 8, "simulated device count")
	fs.Float64Var(&m.MemGiB, "mem", 0, "per-device pool in GiB (0 = fit the working set with 10% headroom)")
}

// Resolve applies the manifest's rules and builds what micco.Run takes: it
// loads the pair stream — a workload file through its validating decode,
// or a compiled deck — refuses a scheduler that needs a trained predictor,
// and builds the cluster, its pool MemGiB or the working set plus 10%.
func (m Manifest) Resolve() (*micco.Workload, micco.Scheduler, *micco.Cluster, error) {
	pool := m.MemGiB * (1 << 30)
	switch {
	case m.Workload == "" && m.Deck == "":
		return nil, nil, nil, fmt.Errorf("-workload is required")
	case m.Workload != "" && m.Deck != "":
		return nil, nil, nil, fmt.Errorf("pick one of -workload and -deck")
	case math.IsNaN(pool) || pool < 0:
		return nil, nil, nil, fmt.Errorf("-mem %v: the pool must be 0 (fit the working set) or a positive size in GiB", m.MemGiB)
	case pool >= math.MaxInt64:
		return nil, nil, nil, fmt.Errorf("-mem %v: the pool's byte count does not fit in an int64", m.MemGiB)
	case pool > 0 && pool < 1:
		return nil, nil, nil, fmt.Errorf("-mem %v: the pool is smaller than one byte", m.MemGiB)
	}
	w, err := m.load()
	if err != nil {
		return nil, nil, nil, err
	}
	if micco.SchedulerNeedsPredictor(m.Scheduler) {
		return nil, nil, nil, fmt.Errorf("scheduler %q needs a trained predictor; use redstar or miccobench", m.Scheduler)
	}
	s, err := m.NewScheduler()
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := micco.MI100(m.GPUs)
	if pool > 0 {
		cfg.MemoryBytes = int64(pool)
	} else {
		cfg.MemoryBytes = int64(1.1 * float64(w.TotalUniqueBytes()))
	}
	c, err := micco.NewCluster(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return w, s, c, nil
}

// NewScheduler builds a fresh scheduler of the manifest's name and bounds.
func (m Manifest) NewScheduler() (micco.Scheduler, error) {
	return micco.NewSchedulerByName(m.Scheduler, m.Bounds, nil)
}

// load decodes the workload file, which validates and numbers the stream, or
// compiles the deck.
func (m Manifest) load() (*micco.Workload, error) {
	if m.Deck != "" {
		f, err := os.Open(m.Deck)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		corr, err := micco.LoadDeck(f)
		if err != nil {
			return nil, err
		}
		build, err := corr.BuildPlan()
		if err != nil {
			return nil, err
		}
		return build.Workload, nil
	}
	raw, err := os.ReadFile(m.Workload)
	if err != nil {
		return nil, err
	}
	var w micco.Workload
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("parse workload %s: %w", m.Workload, err)
	}
	return &w, nil
}
