package autotune

import (
	"fmt"
	"math"

	"micco/internal/core"
	"micco/internal/mlearn"
	"micco/internal/sched"
	"micco/internal/workload"
)

// ModelKind selects a regression model family (the three of Table IV).
type ModelKind int

const (
	// LinearModel is ridge-regularized linear regression.
	LinearModel ModelKind = iota
	// BoostingModel is gradient boosting (150 stages, lr 0.1).
	BoostingModel
	// ForestModel is a Random Forest (150 trees) — the paper's choice.
	ForestModel
)

// String implements fmt.Stringer.
func (k ModelKind) String() string {
	switch k {
	case LinearModel:
		return "Linear Regression"
	case BoostingModel:
		return "Gradient Boosting"
	case ForestModel:
		return "Random Forest"
	default:
		return fmt.Sprintf("ModelKind(%d)", int(k))
	}
}

// newMulti builds the multi-output regressor for a model kind with the
// paper's hyperparameters.
func newMulti(kind ModelKind, seed int64) *mlearn.Multi {
	switch kind {
	case LinearModel:
		return mlearn.NewMulti(func() mlearn.Regressor { return mlearn.NewLinear() })
	case BoostingModel:
		return mlearn.NewMulti(func() mlearn.Regressor {
			return mlearn.NewBoosting(mlearn.BoostingConfig{Stages: 150, LearningRate: 0.1, Seed: seed})
		})
	default:
		return mlearn.NewMulti(func() mlearn.Regressor {
			return mlearn.NewForest(mlearn.ForestConfig{NumTrees: 150, MinLeaf: 1, Seed: seed})
		})
	}
}

// Predictor is a trained reuse-bound model implementing
// core.BoundsPredictor for online per-stage inference. The model emits
// scale-free bound fractions; PredictBounds rescales them by the stage's
// slack on the cluster being placed on.
type Predictor struct {
	Kind  ModelKind
	model *mlearn.Multi
	// NumGPU is the device count the training corpus was labeled on, kept
	// in the saved file like TestR2. Train records 8 (the paper's node);
	// predictions never read it.
	NumGPU int
	// TestR2 is the held-out R-squared measured at training time.
	TestR2 float64
}

// Train fits a predictor of the given kind on corpus, holding out testFrac
// (the paper uses 0.2) for the reported R-squared. A nil corpus is an
// error wrapping sched.ErrNilArgument, an empty training split one
// wrapping mlearn.ErrEmpty.
func Train(corpus *mlearn.Dataset, kind ModelKind, testFrac float64, seed int64) (*Predictor, error) {
	if corpus == nil {
		return nil, fmt.Errorf("autotune: %w: corpus", sched.ErrNilArgument)
	}
	train, test := corpus.Split(testFrac, seed)
	if train.Len() == 0 {
		return nil, fmt.Errorf("autotune: empty training split: %w", mlearn.ErrEmpty)
	}
	m := newMulti(kind, seed)
	if err := m.Fit(train); err != nil {
		return nil, err
	}
	p := &Predictor{Kind: kind, model: m, NumGPU: 8}
	if test.Len() > 0 {
		r2, err := m.R2(test)
		if err != nil {
			return nil, err
		}
		p.TestR2 = r2
	}
	return p, nil
}

// PredictBounds implements core.BoundsPredictor: online inference on a
// stage's data characteristics. Features are first clamped into the
// training grid's hull — tree ensembles extrapolate as constants, and the
// slack rescale would otherwise explode for stages far wider than any
// training sample (real correlator stages reach thousands of pairs). The
// model's scale-free outputs are then rescaled by the clamped stage's
// maximum slack on numGPU devices, rounded, and clamped to [0, maxSlack].
// The trained model is read-only, so one predictor serves clusters of any
// size concurrently.
func (p *Predictor) PredictBounds(f workload.Features, numGPU int) core.Bounds {
	f.VectorSize = clamp(f.VectorSize, float64(vectorSizes[0]), float64(vectorSizes[len(vectorSizes)-1]))
	f.TensorDim = clamp(f.TensorDim, float64(tensorDims[0]), float64(tensorDims[len(tensorDims)-1]))
	f.DistBias = clamp(f.DistBias, 0, 1)
	f.RepeatRate = clamp(f.RepeatRate, 0, 1)
	raw := p.model.Predict(f.AsSlice())
	numTensor := int(math.Round(2 * f.VectorSize))
	hi := MaxSlack(numTensor, numGPU)
	var b core.Bounds
	for i := 0; i < 3 && i < len(raw); i++ {
		v := int(math.Round(raw[i] * float64(hi)))
		if v < 0 {
			v = 0
		}
		if v > hi {
			v = hi
		}
		b[i] = v
	}
	return b
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ModelScore holds one Table IV row.
type ModelScore struct {
	Kind ModelKind
	R2   float64
}

// EvaluateModels trains all three model families on the corpus with the
// same split and returns their held-out R-squared scores (Table IV). A split
// that holds no sample out measures nothing, so it is an error wrapping
// mlearn.ErrEmpty, as an empty training split is; a nil corpus is one
// wrapping sched.ErrNilArgument.
func EvaluateModels(corpus *mlearn.Dataset, testFrac float64, seed int64) ([]ModelScore, error) {
	if corpus == nil {
		return nil, fmt.Errorf("autotune: %w: corpus", sched.ErrNilArgument)
	}
	if _, test := corpus.Split(testFrac, seed); test.Len() == 0 {
		return nil, fmt.Errorf("autotune: test fraction %v of %d samples holds none out: %w", testFrac, corpus.Len(), mlearn.ErrEmpty)
	}
	kinds := []ModelKind{LinearModel, BoostingModel, ForestModel}
	out := make([]ModelScore, 0, len(kinds))
	for _, k := range kinds {
		p, err := Train(corpus, k, testFrac, seed)
		if err != nil {
			return nil, fmt.Errorf("autotune: %v: %w", k, err)
		}
		out = append(out, ModelScore{Kind: k, R2: p.TestR2})
	}
	return out, nil
}

var _ core.BoundsPredictor = (*Predictor)(nil)
