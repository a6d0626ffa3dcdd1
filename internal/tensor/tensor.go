package tensor

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
)

// Tensor is a dense batched complex tensor: a Desc plus its data in
// split-complex form. Data holds the real plane — Elems() real parts — and
// then the imaginary plane, Elems() imaginary parts. Within each plane the
// layout is row-major, batch-outermost: for rank 2 element (b, i, j) sits
// at b*Dim*Dim + i*Dim + j; for rank 3, (b, i, j, k) sits at
// ((b*Dim+i)*Dim+j)*Dim + k. Every n x n group of a contraction is thereby
// already the pair of row-major re/im panels the kernels read, and their
// output rows are stored straight into the destination's planes.
type Tensor struct {
	Desc
	Data []float64
}

// New allocates a zero-filled tensor with the given description.
func New(d Desc) (*Tensor, error) {
	if !d.Valid() {
		return nil, fmt.Errorf("tensor: invalid desc %v", d)
	}
	return &Tensor{Desc: d, Data: make([]float64, 2*d.Elems())}, nil
}

// MustNew is New but panics on invalid descriptions; for tests and examples.
func MustNew(d Desc) *Tensor {
	t, err := New(d)
	if err != nil {
		panic(err)
	}
	return t
}

// NewRandom allocates a tensor with elements drawn i.i.d. from the complex
// unit square via the supplied source, mimicking perambulator-style inputs.
// Each element draws its real part and then its imaginary part, element by
// element in index order.
func NewRandom(d Desc, rng *rand.Rand) (*Tensor, error) {
	return NewRandomIn(d, nil, rng)
}

// NewRandomIn is NewRandom drawing into buf's storage when it can hold the
// tensor's 2*Elems() values, and into fresh storage otherwise. It draws
// the same stream in the same order and overwrites every value, so the
// tensor is NewRandom's bit for bit whatever buf held.
func NewRandomIn(d Desc, buf []float64, rng *rand.Rand) (*Tensor, error) {
	if !d.Valid() {
		return nil, fmt.Errorf("tensor: invalid desc %v", d)
	}
	vals := 2 * int(d.Elems())
	if cap(buf) < vals {
		buf = make([]float64, vals)
	}
	t := &Tensor{Desc: d, Data: buf[:vals]}
	re, im := t.planes()
	for i := range re {
		re[i] = rng.Float64()*2 - 1
		im[i] = rng.Float64()*2 - 1
	}
	return t, nil
}

// NewIdentity allocates a batched identity matrix (rank 2 only): each batch
// slice is the Dim x Dim identity.
func NewIdentity(d Desc) (*Tensor, error) {
	if d.Rank != RankMeson {
		return nil, fmt.Errorf("tensor: identity requires rank 2, got %v", d)
	}
	t, err := New(d)
	if err != nil {
		return nil, err
	}
	re, _ := t.planes()
	n := d.Dim
	for b := 0; b < d.Batch; b++ {
		base := b * n * n
		for i := 0; i < n; i++ {
			re[base+i*n+i] = 1
		}
	}
	return t, nil
}

// planes returns the real and imaginary planes of t's data.
func (t *Tensor) planes() (re, im []float64) {
	h := len(t.Data) / 2
	return t.Data[:h], t.Data[h:]
}

// at returns the element at plane index k.
func (t *Tensor) at(k int) complex128 {
	re, im := t.planes()
	return complex(re[k], im[k])
}

// set stores v at plane index k.
func (t *Tensor) set(k int, v complex128) {
	re, im := t.planes()
	re[k], im[k] = real(v), imag(v)
}

// Clone returns a deep copy of t, optionally with a new identity.
func (t *Tensor) Clone(id uint64) *Tensor {
	c := &Tensor{Desc: t.Desc}
	c.ID = id
	c.Data = make([]float64, len(t.Data))
	copy(c.Data, t.Data)
	return c
}

// At2 returns element (b, i, j) of a rank-2 tensor.
func (t *Tensor) At2(b, i, j int) complex128 {
	return t.at((b*t.Dim+i)*t.Dim + j)
}

// Set2 sets element (b, i, j) of a rank-2 tensor.
func (t *Tensor) Set2(b, i, j int, v complex128) {
	t.set((b*t.Dim+i)*t.Dim+j, v)
}

// At3 returns element (b, i, j, k) of a rank-3 tensor.
func (t *Tensor) At3(b, i, j, k int) complex128 {
	return t.at((((b*t.Dim)+i)*t.Dim+j)*t.Dim + k)
}

// Set3 sets element (b, i, j, k) of a rank-3 tensor.
func (t *Tensor) Set3(b, i, j, k int, v complex128) {
	t.set((((b*t.Dim)+i)*t.Dim+j)*t.Dim+k, v)
}

// Scale multiplies every element by s in place and returns t. Each product
// is the one complex128 multiplication computes: re*sr - im*si and
// re*si + im*sr, every operation rounded on its own.
func (t *Tensor) Scale(s complex128) *Tensor {
	sr, si := real(s), imag(s)
	re, im := t.planes()
	im = im[:len(re)]
	for i, r := range re {
		x := im[i]
		re[i], im[i] = r*sr-x*si, r*si+x*sr
	}
	return t
}

// AddTo accumulates src into t element-wise. Shapes must match.
func (t *Tensor) AddTo(src *Tensor) error {
	if t.Rank != src.Rank || t.Dim != src.Dim || t.Batch != src.Batch {
		return fmt.Errorf("tensor: add shape mismatch %v vs %v", t.Desc, src.Desc)
	}
	for i, v := range src.Data {
		t.Data[i] += v
	}
	return nil
}

// Norm returns the Frobenius norm over all batches: the square root of one
// chain s += re*re + im*im over the elements in index order.
func (t *Tensor) Norm() float64 {
	re, im := t.planes()
	im = im[:len(re)]
	var s float64
	for i, r := range re {
		s += r*r + im[i]*im[i]
	}
	return math.Sqrt(s)
}

// Norms sets norms[i] = ts[i].Norm() for every i. Four tensors of equal
// length are read in one pass, each with its own chain — Norm's, in the
// same order — so the four latency-bound chains overlap and every result
// has Norm's bits; a quartet of mixed lengths, and the one to three
// tensors left over, go through Norm itself.
func Norms(norms []float64, ts []*Tensor) {
	i := 0
	for ; i+4 <= len(ts); i += 4 {
		q := ts[i : i+4]
		if n := len(q[0].Data); len(q[1].Data) == n && len(q[2].Data) == n && len(q[3].Data) == n {
			norms[i], norms[i+1], norms[i+2], norms[i+3] = norm4(q[0], q[1], q[2], q[3])
			continue
		}
		for j, t := range q {
			norms[i+j] = t.Norm()
		}
	}
	for ; i < len(ts); i++ {
		norms[i] = ts[i].Norm()
	}
}

// norm4 is Norm of four tensors of equal length in one pass.
func norm4(a, b, c, d *Tensor) (float64, float64, float64, float64) {
	ar, ai := a.planes()
	br, bi := b.planes()
	cr, ci := c.planes()
	dr, di := d.planes()
	n := len(ar)
	ai, br, bi, cr, ci, dr, di = ai[:n], br[:n], bi[:n], cr[:n], ci[:n], dr[:n], di[:n]
	var s0, s1, s2, s3 float64
	for k := 0; k < n; k++ {
		s0 += ar[k]*ar[k] + ai[k]*ai[k]
		s1 += br[k]*br[k] + bi[k]*bi[k]
		s2 += cr[k]*cr[k] + ci[k]*ci[k]
		s3 += dr[k]*dr[k] + di[k]*di[k]
	}
	return math.Sqrt(s0), math.Sqrt(s1), math.Sqrt(s2), math.Sqrt(s3)
}

// Trace returns the sum over batches of the generalized diagonal trace:
// sum_i T[i,i] for rank 2 and sum_i T[i,i,i] for rank 3. Correlator values
// are traces of fully contracted graphs.
func (t *Tensor) Trace() (complex128, error) {
	// group is one batch instance's extent in a plane, step the distance
	// from T[i,i(,i)] to T[i+1,i+1(,i+1)].
	var group, step int
	n := t.Dim
	switch t.Rank {
	case RankMeson:
		group, step = n*n, n+1
	case RankBaryon:
		group, step = n*n*n, n*n+n+1
	default:
		return 0, fmt.Errorf("tensor: trace unsupported for %v", t.Desc)
	}
	re, im := t.planes()
	var sr, si float64
	for b := 0; b < t.Batch; b++ {
		for i := 0; i < n; i++ {
			k := b*group + i*step
			sr += re[k]
			si += im[k]
		}
	}
	return complex(sr, si), nil
}

// AllClose reports whether a and b agree element-wise within tol (absolute,
// per element, on the complex modulus of the difference).
func AllClose(a, b *Tensor, tol float64) bool {
	if a.Rank != b.Rank || a.Dim != b.Dim || a.Batch != b.Batch {
		return false
	}
	ar, ai := a.planes()
	br, bi := b.planes()
	for i := range ar {
		if cmplx.Abs(complex(ar[i]-br[i], ai[i]-bi[i])) > tol {
			return false
		}
	}
	return true
}
