package tensor

// The split-complex packed contraction kernel.
//
// One n x n group product C = A*B is computed in three steps: the A and B
// blocks are unpacked into separate real/imaginary float64 panels
// (row-major, so row k is unit-stride in j), then a register-blocked
// micro-kernel — four output rows at a time on AVX-512, one on AVX2 —
// sweeps k in ascending order, vectorizing across output columns j;
// finally the finished split rows are repacked into interleaved
// complex128 output. Splitting re/im into separate panels turns every
// complex multiply-add into four independent float64 multiply streams with
// unit stride, which the vector micro-kernels execute 8 (ZMM) or 4 (YMM)
// columns per instruction and the scalar kernel executes with no
// interleaved loads or shuffles.
//
// Determinism: for every output element (i,j) the products a[i,k]*b[k,j]
// are accumulated one at a time in ascending k order, each product rounded
// exactly as the scalar expression ar*br - ai*bi / ar*bi + ai*br (the
// vector paths use only VMULPD/VADDPD/VSUBPD — never FMA — so per-lane
// rounding is identical to scalar IEEE arithmetic). Vectorization and row
// blocking distribute output elements across lanes and registers without
// reordering any element's accumulation chain, so results are
// bit-identical to the naive interleaved-complex triple loop and invariant
// under the worker count and the chosen code path. Keep it that way: the
// numeric engine's fingerprints rely on it.
//
// Every dimension takes this route. A group narrower than the 8-column
// vector tile simply never reaches a vector kernel: its rows are all
// scalar tail. There is no separate small-dimension kernel, because its
// only argument was the O(n^2) packing cost at n < 8, where a whole group
// product is a few hundred flops and no ladder workload spends its time.

// forceScalarKernel disables the assembly micro-kernel within the packed
// path; tests use it to cross-check vector and scalar lanes bit for bit.
var forceScalarKernel = false

// contractGroupSoA multiplies one n x n group through the split-complex
// packed kernel. dst contents on entry are ignored (fully overwritten).
// dst may alias a or b: both operands are packed in full before any
// output element is stored.
func contractGroupSoA(dst, a, b []complex128, n int, buf *packBuf) {
	packSplit(buf.bRe, buf.bIm, b)
	packSplit(buf.aRe, buf.aIm, a)
	mulPackedExact(dst, buf.aRe, buf.aIm, buf.bRe, buf.bIm, n, buf)
}

// mulPackedExact computes the product of one n x n group from split
// panels and merges it into interleaved dst: the one group-product
// routine behind both ContractInto and ContractBatch, which is what makes
// the two bit-identical. With AVX-512 and n >= 16, rows go four at a time
// through the 4x16 block kernel (scalar tail for the n%16 columns); the
// n%4 rows left over, and every row on lesser tiers, go through the 1x8
// AVX2 row kernel (scalar tail for the n%8 columns) or, without AVX2,
// the scalar kernel alone. Every route runs each element's chain in the
// same order with the same roundings, so which rows take which route
// never shows in the bits. buf supplies the split C scratch; the panels
// must not overlap dst.
func mulPackedExact(dst []complex128, aRe, aIm, bRe, bIm []float64, n int, buf *packBuf) {
	buf.cRe = growf(buf.cRe, 4*n)
	buf.cIm = growf(buf.cIm, 4*n)
	cRe, cIm := buf.cRe, buf.cIm
	i := 0
	if useAVX512 && !forceScalarKernel && n >= 16 {
		lo := n &^ 15
		for ; i+4 <= n; i += 4 {
			blockKernelAVX512(&cRe[0], &cIm[0], &aRe[i*n], &aIm[i*n], &bRe[0], &bIm[0], n)
			for r := 0; r < 4; r++ {
				ro := (i + r) * n
				rowKernelScalar(cRe[r*n:r*n+n], cIm[r*n:r*n+n], aRe[ro:ro+n], aIm[ro:ro+n], bRe, bIm, n, lo)
			}
			unpackMerge(dst[i*n:i*n+4*n], cRe, cIm)
		}
	}
	vec := useAVX2 && !forceScalarKernel && n >= 8
	for ; i < n; i++ {
		lo := 0
		if vec {
			lo = n &^ 7
			rowKernelAVX2(&cRe[0], &cIm[0], &aRe[i*n], &aIm[i*n], &bRe[0], &bIm[0], n)
		}
		rowKernelScalar(cRe, cIm, aRe[i*n:i*n+n], aIm[i*n:i*n+n], bRe, bIm, n, lo)
		unpackMerge(dst[i*n:i*n+n], cRe, cIm)
	}
}

// rowKernelScalar computes output columns [lo, n) of one C row: for each
// k ascending it folds the rank-1 update a[k] * b[k][j] into the split
// accumulators. The four fused float64 streams per iteration (two products
// per component) compile to branch-free scalar code; the accumulation
// chain per column is identical to the vector lanes'.
func rowKernelScalar(cRe, cIm, aRe, aIm, bRe, bIm []float64, n, lo int) {
	if lo >= n {
		return
	}
	w := n - lo
	crow := cRe[lo : lo+w]
	ciow := cIm[lo : lo+w]
	for j := range crow {
		crow[j] = 0
		ciow[j] = 0
	}
	for k := 0; k < n; k++ {
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
