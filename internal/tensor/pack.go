package tensor

import "sync"

// packBuf holds the split-complex (structure-of-arrays) scratch panels of
// one contraction worker: the full A and B panels of the current group
// plus the four C rows in flight (mulPackedExact grows them on demand).
// Buffers are recycled through packPool so steady-state contractions
// allocate nothing; a BatchPipeline holds one per worker for its
// lifetime.
type packBuf struct {
	bRe, bIm []float64 // full n*n B panel, row-major: bRe[k*n+j]
	aRe, aIm []float64 // full n*n A panel, row-major: aRe[i*n+k]
	cRe, cIm []float64 // C accumulator rows: cRe[r*n+j]
}

// packPool recycles pack buffers across contractions and workers.
var packPool = sync.Pool{New: func() any { return new(packBuf) }}

// getPackBuf returns a pooled buffer sized for dimension-n groups.
func getPackBuf(n int) *packBuf {
	b := packPool.Get().(*packBuf)
	b.size(n)
	return b
}

// size makes b's A and B panels hold one dimension-n group.
func (b *packBuf) size(n int) {
	b.bRe = growf(b.bRe, n*n)
	b.bIm = growf(b.bIm, n*n)
	b.aRe = growf(b.aRe, n*n)
	b.aIm = growf(b.aIm, n*n)
}

// putPackBuf returns a buffer to the pool.
func putPackBuf(b *packBuf) { packPool.Put(b) }

// growf reslices s to length n, reallocating only when capacity is short.
func growf(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// packSplit unpacks interleaved complex values into separate real and
// imaginary panels. re and im must be at least len(src) long. The AVX-512
// permute kernel moves the bulk when available; it is pure data movement
// (bytes identical to the scalar loop), so the choice never affects
// results.
func packSplit(re, im []float64, src []complex128) {
	re = re[:len(src)]
	im = im[:len(src)]
	i := 0
	if useAVX512 && len(src) >= 8 {
		i = len(src) &^ 7
		packSplitAVX512(&re[0], &im[0], &src[0], i)
	}
	for ; i < len(src); i++ {
		v := src[i]
		re[i] = real(v)
		im[i] = imag(v)
	}
}

// unpackMerge is packSplit's inverse: it zips split re/im panels back
// into interleaved complex values. re and im must be at least len(dst)
// long. Same pure-data-movement contract as packSplit.
func unpackMerge(dst []complex128, re, im []float64) {
	re = re[:len(dst)]
	im = im[:len(dst)]
	i := 0
	if useAVX512 && len(dst) >= 8 {
		i = len(dst) &^ 7
		unpackMergeAVX512(&dst[0], &re[0], &im[0], i)
	}
	for ; i < len(dst); i++ {
		dst[i] = complex(re[i], im[i])
	}
}
