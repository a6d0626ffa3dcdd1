package tensor

// The split-complex contraction kernel.
//
// A tensor stores its real plane and then its imaginary plane (tensor.go),
// so each n x n group of an operand is already a pair of row-major
// float64 panels, row k unit-stride in j. One group product C = A*B is a
// register-blocked micro-kernel — four output rows at a time on AVX-512,
// one on AVX2 — sweeping k in ascending order and vectorizing across
// output columns j, which stores each finished C row straight into the
// destination's planes. Splitting re/im into separate planes turns every
// complex multiply-add into four independent float64 multiply streams with
// unit stride, which the vector micro-kernels execute 8 (ZMM) or 4 (YMM)
// columns per instruction and the scalar kernel executes with no
// interleaved loads or shuffles. Nothing is converted on the way in or
// out: the only bytes a group product moves besides its operands and its
// result are the copy of an operand group the destination aliases.
//
// Determinism: for every output element (i,j) the products a[i,k]*b[k,j]
// are accumulated one at a time in ascending k order, each product rounded
// exactly as the scalar expression ar*br - ai*bi / ar*bi + ai*br (the
// vector paths use only VMULPD/VADDPD/VSUBPD — never FMA — so per-lane
// rounding is identical to scalar IEEE arithmetic). Vectorization and row
// blocking distribute output elements across lanes and registers without
// reordering any element's accumulation chain, so results are
// bit-identical to the naive complex triple loop and invariant under the
// worker count and the chosen code path. Keep it that way: the numeric
// engine's fingerprints rely on it.
//
// Every dimension takes this route. A group narrower than the 8-column
// vector tile simply never reaches a vector kernel: its rows are all
// scalar tail.

// forceScalarKernel disables the assembly micro-kernels; tests use it to
// cross-check vector and scalar lanes bit for bit.
var forceScalarKernel = false

// group returns the real and imaginary n x n panels of group g of data,
// the storage of a tensor whose groups are n x n.
func group(data []float64, g, n int) (re, im []float64) {
	lo, h := g*n*n, len(data)/2
	return data[lo : lo+n*n], data[h+lo : h+lo+n*n]
}

// contractGroup computes group g of dst = a x b, where dst, a and b are
// the storage of three tensors of one shape with n x n groups: the one
// group-product routine behind both ContractInto and ContractBatch, which
// is what makes the two bit-identical. dst contents on entry are ignored.
// dst may be a, b or both: an operand group that shares dst's planes is
// read from buf's copy of it, since the kernels store C rows as they go.
func contractGroup(dst, a, b []float64, g, n int, buf *packBuf) {
	dRe, dIm := group(dst, g, n)
	aRe, aIm := group(a, g, n)
	bRe, bIm := group(b, g, n)
	inA, inB := &dRe[0] == &aRe[0], &dRe[0] == &bRe[0]
	if inA {
		aRe, aIm = buf.hold(aRe, aIm)
	}
	if inB && inA {
		bRe, bIm = aRe, aIm
	} else if inB {
		bRe, bIm = buf.hold(bRe, bIm)
	}
	mulGroup(dRe, dIm, aRe, aIm, bRe, bIm, n)
}

// mulGroup computes the product of one n x n group from split panels into
// split dst panels, which must not overlap the operands. With AVX-512 and
// n >= 16, rows go four at a time through the 4x16 block kernel (scalar
// tail for the n%16 columns); the n%4 rows left over, and every row on
// lesser tiers, go through the 1x8 AVX2 row kernel (scalar tail for the
// n%8 columns) or, without AVX2, the scalar kernel alone. Every route runs
// each element's chain in the same order with the same roundings, so which
// rows take which route never shows in the bits.
func mulGroup(dRe, dIm, aRe, aIm, bRe, bIm []float64, n int) {
	i := 0
	if useAVX512 && !forceScalarKernel && n >= 16 {
		lo := n &^ 15
		for ; i+4 <= n; i += 4 {
			blockKernelAVX512(&dRe[i*n], &dIm[i*n], &aRe[i*n], &aIm[i*n], &bRe[0], &bIm[0], n)
			for r := i * n; r < (i+4)*n; r += n {
				rowKernelScalar(dRe[r:r+n], dIm[r:r+n], aRe[r:r+n], aIm[r:r+n], bRe, bIm, n, lo)
			}
		}
	}
	vec := useAVX2 && !forceScalarKernel && n >= 8
	for ; i < n; i++ {
		r, lo := i*n, 0
		if vec {
			lo = n &^ 7
			rowKernelAVX2(&dRe[r], &dIm[r], &aRe[r], &aIm[r], &bRe[0], &bIm[0], n)
		}
		rowKernelScalar(dRe[r:r+n], dIm[r:r+n], aRe[r:r+n], aIm[r:r+n], bRe, bIm, n, lo)
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
