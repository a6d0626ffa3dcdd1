//go:build !amd64

package tensor

import (
	"math/rand"
	"testing"
)

// TestNoasmDispatchNeverSelectsStubs: off amd64 every hardware tier must
// probe false, dispatch must resolve every route to the scalar kernels,
// and a contraction, pairwise and batched, must complete without reaching
// the panicking assembly stubs — even when MICCO_KERNEL asks for a vector
// tier the build cannot provide.
func TestNoasmDispatchNeverSelectsStubs(t *testing.T) {
	if hwAVX2 || hwAVX512 {
		t.Fatal("non-amd64 build reports x86 vector tiers")
	}
	rng := rand.New(rand.NewSource(1001))
	for _, tier := range kernelTiers {
		withKernelEnv(t, tier, func() {
			if useAVX2 || useAVX512 {
				t.Fatalf("MICCO_KERNEL=%s enabled a vector tier without hardware", tier)
			}
			d := Desc{ID: 1, Rank: RankMeson, Dim: 17, Batch: 2}
			a, _ := NewRandom(d, rng)
			b, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: 17, Batch: 2}, rng)
			pairwise, err := Contract(a, b, 3, 2) // panics here = stub dispatched
			if err != nil {
				t.Fatal(err)
			}
			ops := []BatchOp{{Dst: &Tensor{}, A: a, B: b, OutID: 3}}
			if err := ContractBatch(ops, 2); err != nil {
				t.Fatal(err)
			}
			equalBits(t, ops[0].Dst, pairwise, "noasm batch==pairwise")
		})
	}
}
