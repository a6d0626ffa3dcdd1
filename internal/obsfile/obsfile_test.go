package obsfile_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"micco/internal/core"
	"micco/internal/gpusim"
	"micco/internal/obs"
	"micco/internal/obsfile"
	"micco/internal/sched"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// writeUnbuffered is Write as it was before the file was buffered: the
// artifact writer gets the *os.File itself.
func writeUnbuffered(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestArtifactsUnchangedByBuffering records a run under memory pressure and
// writes each artifact both ways: the files must be the same bytes.
func TestArtifactsUnchangedByBuffering(t *testing.T) {
	w, err := workload.Generate(workload.Config{
		Seed: 5, Stages: 3, VectorSize: 24, TensorDim: 64, Batch: 2,
		Rank: tensor.RankMeson, RepeatRate: 0.6, Dist: workload.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gpusim.MI100(4)
	cfg.MemoryBytes = w.TotalUniqueBytes() / 8
	c, err := gpusim.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	reg.SetFlightRecorder(obs.NewFlightRecorder())
	c.StartTrace()
	res, err := sched.Run(context.Background(), w, core.NewFixed(core.Bounds{0, 2, 0}), c, sched.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	events, decisions, flight := c.StopTrace(), reg.Decisions(), reg.FlightRecorder().Snapshot()
	if len(events) == 0 || len(decisions) == 0 || len(flight.Events) == 0 {
		t.Fatalf("the run left %d events, %d decisions, %d flight events", len(events), len(decisions), len(flight.Events))
	}

	dir := t.TempDir()
	for _, a := range []struct {
		name     string
		buffered func(path string) error
		direct   func(io.Writer) error
	}{
		{"metrics.json",
			func(p string) error { return obsfile.WriteMetrics(p, io.Discard, res.Metrics) },
			func(w io.Writer) error {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				return enc.Encode(res.Metrics)
			}},
		{"trace.json",
			func(p string) error { return obsfile.WriteTrace(p, io.Discard, events, decisions) },
			func(w io.Writer) error { return gpusim.WriteChromeTraceMerged(w, events, decisions) }},
		{"decisions.ndjson",
			func(p string) error { return obsfile.WriteDecisions(p, io.Discard, decisions) },
			func(w io.Writer) error { return obs.WriteDecisionsNDJSON(w, decisions) }},
		{"flight.json",
			func(p string) error { return obsfile.WriteFlight(p, io.Discard, flight) },
			flight.WriteJSON},
	} {
		buffered, direct := filepath.Join(dir, a.name), filepath.Join(dir, "direct-"+a.name)
		if err := a.buffered(buffered); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if err := writeUnbuffered(direct, a.direct); err != nil {
			t.Fatalf("%s, unbuffered: %v", a.name, err)
		}
		got, err := os.ReadFile(buffered)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(direct)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes buffered, %d bytes written directly, and they differ or are empty", a.name, len(got), len(want))
		}
	}
}

// TestWriteReturnsErrors checks the three ways Write can fail after the
// file exists: the artifact writer's own error, a write error the buffer
// holds back until Flush, and one that surfaces while the writer runs.
func TestWriteReturnsErrors(t *testing.T) {
	boom := errors.New("boom")
	path := filepath.Join(t.TempDir(), "out")
	var logged bytes.Buffer
	err := obsfile.Write(path, "artifact", &logged, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) || logged.Len() != 0 {
		t.Errorf("failing writer: Write returned %v and logged %q, want %v and nothing", err, logged.String(), boom)
	}

	// /dev/full accepts the open and fails every write with ENOSPC.
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here")
	}
	for _, size := range []int{10, 1 << 20} { // held in the buffer; larger than it
		err := obsfile.Write("/dev/full", "artifact", &logged, func(w io.Writer) error {
			_, err := w.Write(make([]byte, size))
			return err
		})
		if !errors.Is(err, syscall.ENOSPC) || logged.Len() != 0 {
			t.Errorf("%d bytes to /dev/full: Write returned %v and logged %q, want ENOSPC and nothing", size, err, logged.String())
		}
	}
}

// TestWriteReplacesOnlyOnSuccess checks that an artifact changes only when
// its writer succeeds: a writer that emits bytes and then fails — within the
// buffer or past it — leaves the previous file byte for byte, a successful
// one replaces it whole, and neither leaves a temporary file behind. A new
// artifact gets the permissions os.Create would have given it; a rewritten
// one keeps its own, even when they are narrower.
func TestWriteReplacesOnlyOnSuccess(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	put := func(content string) error {
		return obsfile.Write(path, "artifact", io.Discard, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
	}
	check := func(when, want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("%s: the artifact holds %d bytes (%v), want %q", when, len(got), err, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 1 {
			t.Errorf("%s: the directory holds %d entries (%v), want the artifact alone", when, len(entries), err)
		}
	}
	if err := put("first"); err != nil {
		t.Fatal(err)
	}
	check("first write", "first")

	boom := errors.New("boom")
	for _, size := range []int{7, 1 << 20} { // held in the buffer; flushed past it
		err := obsfile.Write(path, "artifact", io.Discard, func(w io.Writer) error {
			w.Write(bytes.Repeat([]byte("x"), size))
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("failing writer after %d bytes: Write returned %v, want %v", size, err, boom)
		}
		check("failed write", "first")
	}

	if err := put("second"); err != nil {
		t.Fatal(err)
	}
	check("second write", "second")

	ref := filepath.Join(t.TempDir(), "ref")
	f, err := os.Create(ref)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	want, err := os.Stat(ref)
	if err != nil {
		t.Fatal(err)
	}
	mode := func() os.FileMode {
		t.Helper()
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Mode()
	}
	if got := mode(); got != want.Mode() {
		t.Errorf("artifact mode %v, os.Create gives %v", got, want.Mode())
	}

	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := put("third"); err != nil {
		t.Fatal(err)
	}
	check("rewrite of a 0600 artifact", "third")
	if got := mode(); got != 0o600 {
		t.Errorf("rewritten 0600 artifact has mode %v, want %v", got, os.FileMode(0o600))
	}
}
