package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"

	"micco/internal/tensor"
)

// provenance says where and how a run set was recorded. Two run sets are
// comparable only when the fields that change what is measured agree.
type provenance struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"` // micco.KernelFeatures()
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
}

// recordedRun is one child process's result.
type recordedRun struct {
	Workload string `json:"workload"`
	Trace    int    `json:"trace"`
	Round    int    `json:"round"`
	Result   result `json:"result"`
}

// runSet is what -workload all records and -compare reads.
type runSet struct {
	Provenance provenance    `json:"provenance"`
	Runs       []recordedRun `json:"runs"`
}

// values returns one metric of one workload, a value per recorded run.
func (s *runSet) values(workload string, trace int, metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == trace {
			xs = append(xs, r.Result.Metrics[metric].Value)
		}
	}
	return xs
}

// recordAll runs every workload rounds times untraced, round by round so
// that machine drift spreads over all workloads, then once traced, each
// run in a child process of its own (so peak_rss_mb is per workload and
// only one job runs at a time). It prints the medians and stores the run
// set in out.
func recordAll(w io.Writer, seed int64, seconds float64, rounds int, out, outDir string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := &runSet{Provenance: provenance{
		Commit: gitCommit(), Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: tensor.KernelInfo(), Seed: seed, Seconds: seconds, Rounds: rounds,
	}}
	child := func(workload string, trace, round int) error {
		var stdout bytes.Buffer
		cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-outdir", outDir)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s (trace %d, round %d): %w", workload, trace, round, err)
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		run := recordedRun{Workload: workload, Trace: trace, Round: round}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); err != nil {
			return fmt.Errorf("%s: result line: %w", workload, err)
		}
		set.Runs = append(set.Runs, run)
		return nil
	}
	for round := 1; round <= rounds; round++ {
		for _, def := range workloads {
			if err := child(def.name, 0, round); err != nil {
				return err
			}
		}
	}
	for _, def := range workloads {
		if err := child(def.name, 1, 1); err != nil {
			return err
		}
	}
	for _, def := range workloads {
		fmt.Fprintf(w, "== %s\n", def.name)
		for trace, table := range [][]metric{endToEnd, perLayer} {
			for _, m := range table {
				xs := set.values(def.name, trace, m.Name)
				fmt.Fprintf(w, "%-36s %16.6g %-8s (median of %d)\n", m.Name, median(xs), m.Unit, len(xs))
			}
		}
	}
	if out == "" {
		return nil
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// gitCommit names the commit measured, when the benchmark runs inside a
// git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// compareFiles is -compare A.json B.json: A is the base (the parent
// commit), B the change. One row per end-to-end metric and workload with
// both medians, how much worse B is as a share of A, the bound, and a
// verdict: regressed (worse by more than the bound), unresolved (A's own
// runs spread wider than the bound, unless every run of B beats every run
// of A), or ok. Simulated and counted per-layer metrics must agree exactly.
func compareFiles(w io.Writer, files []string) error {
	if len(files) != 2 {
		return fmt.Errorf("-compare takes two recordings, got %d", len(files))
	}
	var sets [2]runSet
	for i, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &sets[i]); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	a, b := &sets[0], &sets[1]
	pa, pb := a.Provenance, b.Provenance
	if pa.GOMAXPROCS != pb.GOMAXPROCS || pa.Kernel != pb.Kernel || pa.Seed != pb.Seed || pa.Seconds != pb.Seconds {
		return fmt.Errorf("recordings are not comparable: GOMAXPROCS %d vs %d, kernel %q vs %q, seed %d vs %d, seconds %g vs %g",
			pa.GOMAXPROCS, pb.GOMAXPROCS, pa.Kernel, pb.Kernel, pa.Seed, pb.Seed, pa.Seconds, pb.Seconds)
	}
	fmt.Fprintf(w, "A (base) %s: commit %s, %d rounds\nB        %s: commit %s, %d rounds\n", files[0], pa.Commit, pa.Rounds, files[1], pb.Commit, pb.Rounds)
	fmt.Fprintf(w, "%-13s %-18s %14s %14s %-8s %9s %7s  %s\n", "workload", "metric", "A median", "B median", "unit", "B worse", "bound", "verdict")
	bad := 0
	for _, def := range workloads {
		for _, m := range endToEnd {
			xa, xb := a.values(def.name, 0, m.Name), b.values(def.name, 0, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				return fmt.Errorf("%s: %s missing from a recording", def.name, m.Name)
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch spread := (quantile(xa, 0.75) - quantile(xa, 0.25)) / ma; {
			case spread > m.Bound && !allBetter(xb, xa, m.Better):
				verdict = fmt.Sprintf("unresolved (A spreads %.1f%%)", 100*spread)
			case worse > m.Bound:
				verdict = "regressed"
				bad++
			}
			fmt.Fprintf(w, "%-13s %-18s %14.6g %14.6g %-8s %+8.1f%% %6.0f%%  %s\n", def.name, m.Name, ma, mb, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	exact := 0
	for _, def := range workloads {
		for _, r := range [2]*runSet{a, b} {
			for _, run := range r.Runs {
				if run.Workload == def.name && run.Result.Failed > 0 {
					fmt.Fprintf(w, "%-13s %d of %d jobs failed verification (trace %d, round %d)\n", def.name, run.Result.Failed, run.Result.Attempted, run.Trace, run.Round)
					bad++
				}
			}
		}
		for _, m := range perLayer {
			if m.Unit != "count" && m.Unit != "sim_s" {
				continue
			}
			xa, xb := a.values(def.name, 1, m.Name), b.values(def.name, 1, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				return fmt.Errorf("%s: %s missing from a recording", def.name, m.Name)
			}
			exact++
			if xa[0] != xb[0] {
				fmt.Fprintf(w, "%-13s %-18s %14.17g %14.17g %-8s differs (must agree exactly)\n", def.name, m.Name, xa[0], xb[0], m.Unit)
				bad++
			}
		}
	}
	fmt.Fprintf(w, "%d simulated and counted per-layer values compared exactly\n", exact)
	if bad > 0 {
		return fmt.Errorf("%d rows regressed, differ or failed", bad)
	}
	return nil
}

// allBetter reports whether every value of xs beats every value of ys.
func allBetter(xs, ys []float64, better string) bool {
	for _, x := range xs {
		for _, y := range ys {
			if x == y || (x < y) != (better == "lower") {
				return false
			}
		}
	}
	return true
}
