package tensor

import (
	"fmt"
	"runtime"
)

// The fast-tier group kernel.
//
// ModeFast trades the Exact tier's bit-identity for fused multiply-adds:
// contractGroupFast packs BOTH operands of an n x n group into full
// split-complex panels, zeroes a full split C panel once, and then streams
// the k range through the FMA/AVX-512 row kernels in cache-sized panels of
// panelKC(n, tier) k-steps. Because the fast row kernels accumulate into
// memory-resident C, cutting k into panels never reorders any element's
// accumulation chain — results are bit-identical for every kc, which
// tune_test.go pins. Accuracy relative to ModeExact is bounded in
// DESIGN.md §12 and enforced by the property tests in fast_test.go.

// ContractMode is Contract with an explicit kernel-mode contract.
func ContractMode(a, b *Tensor, outID uint64, workers int, mode KernelMode) (*Tensor, error) {
	out := &Tensor{}
	if err := ContractIntoMode(out, a, b, outID, workers, mode); err != nil {
		return nil, err
	}
	return out, nil
}

// ContractIntoMode is ContractInto with an explicit kernel-mode contract.
// ModeExact is byte-for-byte today's ContractInto. ModeFast routes groups
// of dimension >= soaMinDim through the fused-kernel path when the machine
// (and MICCO_KERNEL) provide FMA3 or AVX-512, and falls back to the exact
// path otherwise. The aliasing and allocation contracts of ContractInto
// hold on every route.
func ContractIntoMode(dst *Tensor, a, b *Tensor, outID uint64, workers int, mode KernelMode) error {
	if dst == nil {
		return fmt.Errorf("tensor: ContractInto with nil destination")
	}
	od, err := contractOperands(a, b, outID)
	if err != nil {
		return err
	}
	elems := int(od.Elems())
	if cap(dst.Data) >= elems {
		dst.Data = dst.Data[:elems]
	} else {
		dst.Data = make([]complex128, elems)
	}
	dst.Desc = od
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	switch a.Rank {
	case RankMeson:
		batchedMatMul(dst.Data, a.Data, b.Data, a.Batch, a.Dim, workers, mode)
	case RankBaryon:
		// A rank-3 contraction is Batch*Dim independent DxD products, so
		// reuse the batched kernel with an expanded batch count.
		batchedMatMul(dst.Data, a.Data, b.Data, a.Batch*a.Dim, a.Dim, workers, mode)
	default:
		return fmt.Errorf("tensor: unsupported rank %d", a.Rank)
	}
	return nil
}

// contractOperands validates the operands of one contraction — present,
// contractible, and each holding exactly the data its description
// promises, since the kernels index Data by the description alone — and
// returns the output description.
func contractOperands(a, b *Tensor, outID uint64) (Desc, error) {
	if a == nil || b == nil {
		return Desc{}, fmt.Errorf("tensor: contract with nil operand")
	}
	od, err := ContractOut(a.Desc, b.Desc, outID)
	if err != nil {
		return Desc{}, err
	}
	for _, t := range [2]*Tensor{a, b} {
		if len(t.Data) == 0 {
			return Desc{}, fmt.Errorf("tensor: contract on metadata-only tensor %v", t.Desc)
		}
		if int64(len(t.Data)) != t.Elems() {
			return Desc{}, fmt.Errorf("tensor: operand %v holds %d elements, want %d", t.Desc, len(t.Data), t.Elems())
		}
	}
	return od, nil
}

// contractGroupFast multiplies one n x n group through the fused-kernel
// path. dst contents on entry are ignored (fully overwritten); dst may
// alias a or b because both operands are packed in full before any output
// element is written. Callers must check fastTierFor(n) != tierScalar
// first.
func contractGroupFast(dst, a, b []complex128, n int, buf *packBuf) {
	// The fast path accumulates into a full split C panel; the exact path
	// only keeps four C rows in flight, so grow on demand here.
	buf.cRe = growf(buf.cRe, n*n)
	buf.cIm = growf(buf.cIm, n*n)
	packSplit(buf.bRe, buf.bIm, b)
	packSplit(buf.aRe, buf.aIm, a)
	tier := fastTierFor(n)
	mulPackedFast(buf.cRe, buf.cIm, buf.aRe, buf.aIm, buf.bRe, buf.bIm, n, panelKC(n, tier), tier)
	unpackMerge(dst, buf.cRe, buf.cIm)
}

// mulPackedFast computes the full split-complex product C = A*B for
// packed n x n panels: the k range is streamed in panels of kc steps so
// the active B sub-panel stays cache-resident across all n output rows.
// The first panel initializes the accumulators (acc=0 — C's prior
// contents are ignored, no zero pass needed), later panels accumulate
// into C. Within a panel each row runs the widest fused row kernel the
// tier provides plus a scalar tail for columns the vector tile width
// does not cover. Per-element accumulation order is ascending k
// regardless of kc.
func mulPackedFast(cRe, cIm, aRe, aIm, bRe, bIm []float64, n, kc int, tier kernelTier) {
	cRe = cRe[:n*n]
	cIm = cIm[:n*n]
	lo := 0
	switch tier {
	case tierAVX512:
		lo = n &^ 15
	case tierFMA:
		lo = n &^ 7
	}
	for k0 := 0; k0 < n; k0 += kc {
		kn := min(kc, n-k0)
		acc := 0
		if k0 > 0 {
			acc = 1
		}
		for i := 0; i < n; i++ {
			ro := i * n
			switch tier {
			case tierAVX512:
				rowKernelAVX512(&cRe[ro], &cIm[ro], &aRe[ro+k0], &aIm[ro+k0], &bRe[k0*n], &bIm[k0*n], n, kn, acc)
			case tierFMA:
				rowKernelFMA(&cRe[ro], &cIm[ro], &aRe[ro+k0], &aIm[ro+k0], &bRe[k0*n], &bIm[k0*n], n, kn, acc)
			}
			if lo < n {
				if acc == 0 {
					tailRe := cRe[ro+lo : ro+n]
					tailIm := cIm[ro+lo : ro+n]
					for j := range tailRe {
						tailRe[j] = 0
						tailIm[j] = 0
					}
				}
				rowKernelScalarAcc(cRe[ro:ro+n], cIm[ro:ro+n], aRe[ro+k0:ro+k0+kn], aIm[ro+k0:ro+k0+kn], bRe[k0*n:], bIm[k0*n:], n, lo, kn)
			}
		}
	}
}

// rowKernelScalarAcc is the fast path's scalar tail: it folds kn rank-1
// updates into output columns [lo, n) of one C row WITHOUT zeroing first,
// matching the accumulate-into-C contract of the fused vector kernels.
// The arithmetic is plain (unfused) scalar, which the ULP contract covers.
func rowKernelScalarAcc(cRe, cIm, aRe, aIm, bRe, bIm []float64, n, lo, kn int) {
	w := n - lo
	crow := cRe[lo : lo+w]
	ciow := cIm[lo : lo+w]
	for k := 0; k < kn; k++ {
		ar, ai := aRe[k], aIm[k]
		brow := bRe[k*n+lo : k*n+n]
		biow := bIm[k*n+lo : k*n+n]
		brow = brow[:w]
		biow = biow[:w]
		for j := 0; j < w; j++ {
			br, bi := brow[j], biow[j]
			crow[j] += ar*br - ai*bi
			ciow[j] += ar*bi + ai*br
		}
	}
}
