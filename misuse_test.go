package micco_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"io/fs"
	"strings"
	"testing"

	"micco"
	"micco/internal/fault"
	"micco/internal/gpusim"
	"micco/internal/mlearn"
	"micco/internal/sched"
	"micco/internal/spectro"
	"micco/internal/tensor"
	"micco/internal/workload"
)

// failWriter refuses every write.
type failWriter struct{}

var errWrite = errors.New("write refused")

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

// TestMisuseReturnsTypedErrors calls every exported function of the package
// that takes an argument with nil and zero arguments, a cancelled context
// and a mismatched checkpoint. Each call must return the sentinel its row
// names (errors.Is) or, where the row names none, succeed with its
// documented zero value; no call may panic. A nil io.Reader or io.Writer is
// left out: the standard library panics on those as well, so the rows pass
// empty input and a writer that refuses every write instead.
func TestMisuseReturnsTypedErrors(t *testing.T) {
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()

	w, err := micco.GenerateWorkload(micco.WorkloadConfig{
		Seed: 1, Stages: 3, VectorSize: 4, TensorDim: 8, Batch: 1,
		Rank: micco.RankMeson, RepeatRate: 0.5, Dist: micco.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	other, err := micco.GenerateWorkload(micco.WorkloadConfig{
		Seed: 2, Stages: 3, VectorSize: 4, TensorDim: 8, Batch: 1,
		Rank: micco.RankMeson, RepeatRate: 0.5, Dist: micco.Uniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	cluster := func() *micco.Cluster {
		c, err := micco.NewCluster(micco.MI100(2))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	done, err := micco.Run(bg, w, micco.NewGroute(), cluster(), micco.RunOptions{Checkpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	empty := func() io.Reader { return strings.NewReader("") }
	runPlan := func(p *micco.FaultPlan) error {
		_, err := micco.Run(bg, w, micco.NewGroute(), cluster(), micco.RunOptions{FaultPlan: p})
		return err
	}

	rows := []struct {
		name string
		call func(t *testing.T) error
		want error // nil: the call succeeds and checks its own zero value
	}{
		// Simulator.
		{"NewCluster(zero config)", func(*testing.T) error { _, err := micco.NewCluster(micco.ClusterConfig{}); return err }, gpusim.ErrInvalidConfig},
		{"NewCluster(MI100(0))", func(*testing.T) error { _, err := micco.NewCluster(micco.MI100(0)); return err }, gpusim.ErrInvalidConfig},
		{"NewCluster(MI100Nodes(0, 0))", func(*testing.T) error { _, err := micco.NewCluster(micco.MI100Nodes(0, 0)); return err }, gpusim.ErrInvalidConfig},

		// Workloads.
		{"GenerateWorkload(zero config)", func(*testing.T) error { _, err := micco.GenerateWorkload(micco.WorkloadConfig{}); return err }, workload.ErrInvalidConfig},

		// Engine.
		{"Run(nil workload)", func(*testing.T) error {
			_, err := micco.Run(bg, nil, micco.NewGroute(), cluster(), micco.RunOptions{})
			return err
		}, micco.ErrNilArgument},
		{"Run(struct-literal workload)", func(*testing.T) error {
			lit := &micco.Workload{Name: "literal", Inputs: w.Inputs, Outputs: w.Outputs, Stages: w.Stages}
			_, err := micco.Run(bg, lit, micco.NewGroute(), cluster(), micco.RunOptions{Numeric: true})
			return err
		}, workload.ErrUnnumbered},
		{"Run(nil scheduler)", func(*testing.T) error {
			_, err := micco.Run(bg, w, nil, cluster(), micco.RunOptions{})
			return err
		}, micco.ErrNilArgument},
		{"Run(nil cluster)", func(*testing.T) error {
			_, err := micco.Run(bg, w, micco.NewGroute(), nil, micco.RunOptions{})
			return err
		}, micco.ErrNilArgument},
		{"Run(cancelled)", func(*testing.T) error {
			_, err := micco.Run(cancelled, w, micco.NewGroute(), cluster(), micco.RunOptions{})
			return err
		}, context.Canceled},
		{"Run(checkpoint of another stream)", func(*testing.T) error {
			_, err := micco.Run(bg, other, micco.NewGroute(), cluster(), micco.RunOptions{ResumeFrom: done.Checkpoint})
			return err
		}, sched.ErrCheckpointMismatch},
		{"Run(checkpoint on another device count)", func(*testing.T) error {
			c, err := micco.NewCluster(micco.MI100(3))
			if err != nil {
				return err
			}
			_, err = micco.Run(bg, w, micco.NewGroute(), c, micco.RunOptions{ResumeFrom: done.Checkpoint})
			return err
		}, sched.ErrCheckpointMismatch},
		{"Run(zero checkpoint)", func(*testing.T) error {
			_, err := micco.Run(bg, w, micco.NewGroute(), cluster(), micco.RunOptions{ResumeFrom: &micco.Checkpoint{}})
			return err
		}, micco.ErrNilArgument},
		{"Run(MICCO-optimal without a predictor)", func(t *testing.T) error {
			got, err := micco.Run(bg, w, micco.NewMICCOOptimal(nil), cluster(), micco.RunOptions{RecordAssignments: true})
			if err != nil {
				return err
			}
			naive, err := micco.Run(bg, w, micco.NewMICCONaive(), cluster(), micco.RunOptions{RecordAssignments: true})
			if err == nil && got.Makespan != naive.Makespan {
				t.Errorf("makespan %v, MICCO-naive's %v: a nil predictor must keep the bounds at zero", got.Makespan, naive.Makespan)
			}
			return err
		}, nil},
		{"Speedup(nil, nil)", func(t *testing.T) error { return zeroSpeedup(t, micco.Speedup(nil, nil)) }, nil},
		{"Speedup(r, nil)", func(t *testing.T) error { return zeroSpeedup(t, micco.Speedup(done, nil)) }, nil},
		{"Speedup(nil, r)", func(t *testing.T) error { return zeroSpeedup(t, micco.Speedup(nil, done)) }, nil},
		{"Speedup(r, zero result)", func(t *testing.T) error { return zeroSpeedup(t, micco.Speedup(done, &micco.Result{})) }, nil},

		// Registry.
		{"NewSchedulerByName(\"\")", func(*testing.T) error { _, err := micco.NewSchedulerByName("", micco.Bounds{}, nil); return err }, micco.ErrUnknownScheduler},
		{"NewSchedulerByName(micco-optimal, nil)", func(*testing.T) error {
			_, err := micco.NewSchedulerByName("micco-optimal", micco.Bounds{}, nil)
			return err
		}, micco.ErrNilArgument},
		{"SchedulerNeedsPredictor(\"\")", func(t *testing.T) error {
			if micco.SchedulerNeedsPredictor("") {
				t.Error("an unknown name needs a predictor")
			}
			return nil
		}, nil},

		// Model training.
		{"BuildCorpus(cancelled)", func(*testing.T) error {
			_, err := micco.BuildCorpus(cancelled, micco.CorpusConfig{Samples: 4})
			return err
		}, context.Canceled},
		{"TrainPredictor(nil corpus)", func(*testing.T) error { _, err := micco.TrainPredictor(nil, micco.ForestModel, 0.2, 1); return err }, micco.ErrNilArgument},
		{"TrainPredictor(empty corpus)", func(*testing.T) error {
			_, err := micco.TrainPredictor(&micco.TrainingCorpus{}, micco.ForestModel, 0.2, 1)
			return err
		}, mlearn.ErrEmpty},
		{"EvaluateModels(nil corpus)", func(*testing.T) error { _, err := micco.EvaluateModels(nil, 0.2, 1); return err }, micco.ErrNilArgument},
		{"EvaluateModels(empty corpus)", func(*testing.T) error { _, err := micco.EvaluateModels(&micco.TrainingCorpus{}, 0.2, 1); return err }, mlearn.ErrEmpty},
		{"LoadPredictor(empty)", func(*testing.T) error { _, err := micco.LoadPredictor(empty()); return err }, io.EOF},

		// Front end and harness.
		{"LoadDeck(empty)", func(*testing.T) error { _, err := micco.LoadDeck(empty()); return err }, io.EOF},
		{"RunExperiment(cancelled)", func(*testing.T) error {
			_, err := micco.NewHarness(micco.HarnessOptions{}).RunExperiment(cancelled, "fig9")
			return err
		}, context.Canceled},

		// Faults, checkpoints and supervision.
		{"LoadFaultPlan(empty)", func(*testing.T) error { _, err := micco.LoadFaultPlan(empty()); return err }, io.EOF},
		{"SaveFaultPlan(refusing writer)", func(*testing.T) error { return micco.SaveFaultPlan(failWriter{}, &micco.FaultPlan{}) }, errWrite},
		{"FaultPlan.Validate(nil plan)", func(*testing.T) error { return (*micco.FaultPlan)(nil).Validate(2) }, fault.ErrInvalidPlan},
		{"Run(fault plan losing device 2 of 2)", func(*testing.T) error {
			return runPlan(&micco.FaultPlan{Events: []micco.FaultEvent{{Kind: micco.FaultDeviceLoss, Device: 2}}})
		}, fault.ErrInvalidPlan},
		{"Run(fault plan shrinking memory by 1.5)", func(*testing.T) error {
			return runPlan(&micco.FaultPlan{Events: []micco.FaultEvent{{Kind: fault.MemShrink, Factor: 1.5}}})
		}, fault.ErrInvalidPlan},
		{"Run(fault plan with a negative retry budget)", func(*testing.T) error {
			return runPlan(&micco.FaultPlan{Retry: &micco.FaultRetry{Max: -1, BaseSeconds: 1e-3, CapSeconds: 1e-3}})
		}, fault.ErrInvalidPlan},
		{"LoadCheckpointFile(\"\")", func(*testing.T) error { _, err := micco.LoadCheckpointFile(""); return err }, fs.ErrNotExist},
		{"LoadCheckpointFile(a directory)", func(t *testing.T) error { _, err := micco.LoadCheckpointFile(t.TempDir()); return err }, micco.ErrCheckpointCorrupt},
		{"Supervise(zero config)", func(*testing.T) error { _, _, err := micco.Supervise(bg, micco.SuperviseConfig{}); return err }, micco.ErrNilArgument},
		{"Supervise(cancelled)", func(*testing.T) error {
			_, _, err := micco.Supervise(cancelled, micco.SuperviseConfig{
				Workload:     w,
				NewScheduler: func(context.Context) (micco.Scheduler, error) { return micco.NewGroute(), nil },
				NewCluster:   func() (*micco.Cluster, error) { return micco.NewCluster(micco.MI100(2)) },
			})
			return err
		}, context.Canceled},

		// Tensors.
		{"ContractInto(nil destination)", func(*testing.T) error { return micco.ContractInto(nil, nil, nil, 1, 1) }, tensor.ErrInvalidOperand},
		{"ContractInto(nil operands)", func(*testing.T) error { return micco.ContractInto(&micco.Tensor{}, nil, nil, 1, 1) }, tensor.ErrInvalidOperand},
		{"ContractInto(zero tensors)", func(*testing.T) error {
			return micco.ContractInto(&micco.Tensor{}, &micco.Tensor{}, &micco.Tensor{}, 1, 1)
		}, tensor.ErrInvalidOperand},
		{"ContractBatch(nil)", func(*testing.T) error { return micco.ContractBatch(nil, 0) }, nil},
		{"ContractBatch(zero op)", func(*testing.T) error { return micco.ContractBatch([]micco.BatchOp{{}}, 0) }, tensor.ErrInvalidOperand},

		// Observability and analysis.
		{"WritePrometheus(nil registry)", func(*testing.T) error { return micco.WritePrometheus(&bytes.Buffer{}, nil) }, nil},
		{"WritePrometheus(refusing writer)", func(*testing.T) error {
			reg := micco.NewMetricsRegistry()
			reg.Counter("micco_misuse_total").Inc()
			return micco.WritePrometheus(failWriter{}, reg)
		}, errWrite},
		{"WriteDecisions(refusing writer)", func(*testing.T) error {
			return micco.WriteDecisions(failWriter{}, []micco.DecisionRecord{{}})
		}, errWrite},
		{"ReadDecisions(empty)", func(t *testing.T) error {
			recs, err := micco.ReadDecisions(empty())
			if len(recs) != 0 {
				t.Errorf("%d records from no input", len(recs))
			}
			return err
		}, nil},
		{"LoadMetricsSnapshot(empty)", func(*testing.T) error { _, err := micco.LoadMetricsSnapshot(empty()); return err }, io.EOF},
		{"BuildReport(zero input)", func(t *testing.T) error {
			if micco.BuildReport(micco.ReportInput{}) == nil {
				t.Error("nil report")
			}
			return nil
		}, nil},
		{"DiffMetricsSnapshots(nil, nil)", func(t *testing.T) error {
			if micco.DiffMetricsSnapshots(nil, nil) == nil {
				t.Error("nil diff")
			}
			return nil
		}, nil},

		// Multi-node extension.
		{"NewMultiNodeCluster(zero config)", func(*testing.T) error {
			_, err := micco.NewMultiNodeCluster(micco.MultiNodeConfig{})
			return err
		}, gpusim.ErrInvalidConfig},
		{"RunMultiNode(nil workload)", func(*testing.T) error {
			mc, err := micco.NewMultiNodeCluster(micco.DefaultMultiNodeConfig(2, 1))
			if err != nil {
				return err
			}
			_, err = micco.RunMultiNode(bg, nil, mc)
			return err
		}, micco.ErrNilArgument},
		{"RunMultiNode(nil cluster)", func(*testing.T) error { _, err := micco.RunMultiNode(bg, w, nil); return err }, micco.ErrNilArgument},

		// Spectroscopy.
		{"EffectiveMass(nil)", func(t *testing.T) error {
			if m := micco.EffectiveMass(nil); len(m) != 0 {
				t.Errorf("%d points from no series", len(m))
			}
			return nil
		}, nil},
		{"PlateauFit(nil)", func(*testing.T) error { _, _, err := micco.PlateauFit(nil, 0, 0); return err }, spectro.ErrSeries},
		{"FitCorrelator(nil)", func(*testing.T) error { _, _, err := micco.FitCorrelator(nil); return err }, spectro.ErrSeries},
		{"SyntheticCorrelator(empty window)", func(t *testing.T) error {
			if s := micco.SyntheticCorrelator(1, 0.5, 3, 1); len(s) != 0 {
				t.Errorf("%d points in an empty window", len(s))
			}
			return nil
		}, nil},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			err := row.call(t)
			switch {
			case row.want == nil && err != nil:
				t.Fatalf("err = %v, want success", err)
			case row.want != nil && !errors.Is(err, row.want):
				t.Fatalf("err = %v, want %v", err, row.want)
			}
		})
	}
}

// zeroSpeedup is the documented zero value of Speedup without two results.
func zeroSpeedup(t *testing.T, got float64) error {
	t.Helper()
	if got != 0 {
		t.Errorf("Speedup = %v, want 0", got)
	}
	return nil
}
