package mlearn

import (
	"math"
	"math/rand"
	"sort"
)

// TreeConfig parameterizes CART regression trees.
type TreeConfig struct {
	// MaxDepth bounds tree depth; <=0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf; <1 is treated as 1.
	MinLeaf int
	// MaxFeatures limits the features considered per split (random
	// subspace); <=0 considers all features.
	MaxFeatures int
	// Seed drives the feature subsampling when MaxFeatures is set.
	Seed int64
}

// Tree is a CART regression tree splitting on variance (SSE) reduction.
type Tree struct {
	Cfg  TreeConfig
	root *node
	rng  *rand.Rand
}

// node is also a tree's serialized form (see persist.go): the field tags
// are the micco-predictor-v1 layout.
type node struct {
	Feature int     `json:"f"`           // split feature; -1 for leaf
	Thresh  float64 `json:"t,omitempty"` // go left if x[Feature] <= Thresh
	Value   float64 `json:"v,omitempty"` // leaf prediction (mean of targets)
	Left    *node   `json:"l,omitempty"`
	Right   *node   `json:"r,omitempty"`
}

// NewTree returns a regression tree with the given configuration.
func NewTree(cfg TreeConfig) *Tree {
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	return &Tree{Cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Fit implements Regressor.
func (t *Tree) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return ErrEmpty
	}
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.root = t.build(X, y, idx, 0)
	return nil
}

// Predict implements Regressor. An unfitted tree predicts 0.
func (t *Tree) Predict(x []float64) float64 {
	n := t.root
	if n == nil {
		return 0
	}
	for n.Feature >= 0 {
		if n.Feature < len(x) && x[n.Feature] <= n.Thresh {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

// Depth returns the height of the fitted tree (0 for a stump/leaf).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *node) int {
	if n == nil || n.Feature < 0 {
		return 0
	}
	l, r := depth(n.Left), depth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// LeafCount returns the number of leaves in the fitted tree.
func (t *Tree) LeafCount() int { return leaves(t.root) }

func leaves(n *node) int {
	if n == nil {
		return 0
	}
	if n.Feature < 0 {
		return 1
	}
	return leaves(n.Left) + leaves(n.Right)
}

func (t *Tree) build(X [][]float64, y []float64, idx []int, d int) *node {
	leaf := &node{Feature: -1, Value: meanAt(y, idx)}
	if len(idx) < 2*t.Cfg.MinLeaf {
		return leaf
	}
	if t.Cfg.MaxDepth > 0 && d >= t.Cfg.MaxDepth {
		return leaf
	}
	feat, thresh, ok := t.bestSplit(X, y, idx)
	if !ok {
		return leaf
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][feat] <= thresh {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return leaf
	}
	return &node{
		Feature: feat,
		Thresh:  thresh,
		Left:    t.build(X, y, li, d+1),
		Right:   t.build(X, y, ri, d+1),
	}
}

// bestSplit scans candidate features for the split minimizing the summed
// SSE of the two children, via a sorted prefix-sum sweep.
func (t *Tree) bestSplit(X [][]float64, y []float64, idx []int) (feat int, thresh float64, ok bool) {
	nf := len(X[0])
	feats := make([]int, nf)
	for i := range feats {
		feats[i] = i
	}
	if t.Cfg.MaxFeatures > 0 && t.Cfg.MaxFeatures < nf {
		t.rng.Shuffle(nf, func(a, b int) { feats[a], feats[b] = feats[b], feats[a] })
		feats = feats[:t.Cfg.MaxFeatures]
	}
	var totalSum, totalSq float64
	for _, i := range idx {
		totalSum += y[i]
		totalSq += y[i] * y[i]
	}
	parentSSE := totalSq - totalSum*totalSum/float64(len(idx))
	// Splits must strictly reduce SSE; a pure node never splits.
	eps := 1e-12 * (math.Abs(parentSSE) + 1)
	bestSSE := parentSSE - eps
	order := append([]int(nil), idx...)
	for _, f := range feats {
		sort.Slice(order, func(a, b int) bool { return X[order[a]][f] < X[order[b]][f] })
		var leftSum, leftSq float64
		n := len(order)
		for k := 0; k < n-1; k++ {
			i := order[k]
			leftSum += y[i]
			leftSq += y[i] * y[i]
			// Cannot split between equal feature values.
			if X[order[k+1]][f] == X[i][f] {
				continue
			}
			nl, nr := k+1, n-k-1
			if nl < t.Cfg.MinLeaf || nr < t.Cfg.MinLeaf {
				continue
			}
			rightSum := totalSum - leftSum
			rightSq := totalSq - leftSq
			sse := (leftSq - leftSum*leftSum/float64(nl)) +
				(rightSq - rightSum*rightSum/float64(nr))
			if sse < bestSSE {
				bestSSE = sse
				feat = f
				thresh = (X[i][f] + X[order[k+1]][f]) / 2
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

func meanAt(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}
