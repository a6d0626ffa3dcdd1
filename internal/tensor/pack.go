package tensor

import "sync"

// packBuf is one contraction worker's copy of an operand group that the
// destination aliases. The kernels store output rows straight into the
// destination's planes, so a group of A or B that shares those planes
// (dst == a, dst == b, dst == a == b) is copied here first and read from
// the copy. It grows on the first aliased group it serves and keeps its
// size. Buffers are recycled through packPool; a BatchPipeline holds one
// per worker for its lifetime.
type packBuf struct{ re, im []float64 }

// packPool recycles pack buffers across contractions and workers.
var packPool = sync.Pool{New: func() any { return new(packBuf) }}

// hold copies one group's real and imaginary panels into b and returns
// the copies.
func (b *packBuf) hold(re, im []float64) ([]float64, []float64) {
	b.re = append(b.re[:0], re...)
	b.im = append(b.im[:0], im...)
	return b.re, b.im
}
