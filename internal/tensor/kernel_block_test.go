package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// scalarRef multiplies a and b group by group with rowKernelScalar alone,
// packing and merging with plain loops: the chain every exact route must
// reproduce, computed without any of the code under test around it.
func scalarRef(a, b *Tensor) *Tensor {
	n := a.Dim
	out := MustNew(Desc{ID: 1000, Rank: RankMeson, Dim: n, Batch: a.Batch})
	split := func(src []complex128) (re, im []float64) {
		re, im = make([]float64, len(src)), make([]float64, len(src))
		for i, v := range src {
			re[i], im[i] = real(v), imag(v)
		}
		return re, im
	}
	cRe, cIm := make([]float64, n), make([]float64, n)
	for g := 0; g < a.Batch; g++ {
		off := g * n * n
		aRe, aIm := split(a.Data[off : off+n*n])
		bRe, bIm := split(b.Data[off : off+n*n])
		for i := 0; i < n; i++ {
			rowKernelScalar(cRe, cIm, aRe[i*n:i*n+n], aIm[i*n:i*n+n], bRe, bIm, n, 0)
			for j := 0; j < n; j++ {
				out.Data[off+i*n+j] = complex(cRe[j], cIm[j])
			}
		}
	}
	return out
}

// clone copies t so an aliased destination cannot disturb the original.
func clone(t *Tensor) *Tensor {
	return &Tensor{Desc: t.Desc, Data: append([]complex128(nil), t.Data...)}
}

// blockDims brackets the block kernel's seams: the 16-column tile (16,
// 17, 31, 32, 33, 48), the 4-row block (16..20 cover every n%4), a size
// with both remainders (100 = 6 tiles + 4 columns, 25 blocks) and the
// ladder's 128.
var blockDims = []int{16, 17, 18, 19, 20, 31, 32, 33, 48, 100, 128}

// equalBitsOrNaN is equalBits with one allowance: where want is NaN, got
// may be any NaN. IEEE 754 leaves open which operand's payload and sign a
// NaN result inherits, and the compiler's choice of operand order in
// rowKernelScalar need not be the assembly kernels'.
func equalBitsOrNaN(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	same := func(g, w float64) bool {
		return math.Float64bits(g) == math.Float64bits(w) || (math.IsNaN(g) && math.IsNaN(w))
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d elements, want %d", label, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		g, w := got.Data[i], want.Data[i]
		if !same(real(g), real(w)) || !same(imag(g), imag(w)) {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", label, i, g, w)
		}
	}
}

// checkExactRoutes runs a x b through ContractInto and ContractBatch —
// into a fresh destination, into a (dst aliases a), into b (dst aliases
// b), and as a x a with one tensor on both sides — and demands the bits
// of want (resp. wantSq for a x a) from every one of them.
func checkExactRoutes(t *testing.T, label string, a, b, want, wantSq *Tensor) {
	t.Helper()
	type route struct {
		name      string
		dst, x, y *Tensor
		want      *Tensor
	}
	routes := func() []route {
		a1, b1, a2 := clone(a), clone(b), clone(a)
		return []route{
			{"fresh", &Tensor{}, a, b, want},
			{"dst=a", a1, a1, b, want},
			{"dst=b", b1, a, b1, want},
			{"a==b", &Tensor{}, a2, a2, wantSq},
		}
	}
	for _, r := range routes() {
		if err := ContractInto(r.dst, r.x, r.y, 7, 2); err != nil {
			t.Fatalf("%s ContractInto %s: %v", label, r.name, err)
		}
		equalBitsOrNaN(t, r.dst, r.want, label+" ContractInto "+r.name)
	}
	rs := routes()
	ops := make([]BatchOp, len(rs))
	for i, r := range rs {
		ops[i] = BatchOp{Dst: r.dst, A: r.x, B: r.y, OutID: 7}
	}
	if err := ContractBatch(ops, 2); err != nil {
		t.Fatalf("%s ContractBatch: %v", label, err)
	}
	for i, r := range rs {
		equalBitsOrNaN(t, ops[i].Dst, r.want, label+" ContractBatch "+r.name)
	}
}

// TestBlockKernelExact: under every MICCO_KERNEL tier, every route must
// reproduce rowKernelScalar's bits — and so the naive interleaved-complex
// loop's — across the block kernel's row and column seams, with the
// destination fresh or aliasing an operand. ContractInto and
// ContractBatch share mulPackedExact, so they agree on every row.
func TestBlockKernelExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1501))
	for _, n := range blockDims {
		for _, batch := range []int{1, 3} {
			a, _ := NewRandom(Desc{ID: 1, Rank: RankMeson, Dim: n, Batch: batch}, rng)
			b, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: n, Batch: batch}, rng)
			want, wantSq := scalarRef(a, b), scalarRef(a, a)
			label := "n=" + itoa(n) + " batch=" + itoa(batch)
			equalBits(t, naiveMatMul(a, b), want, label+" naive reference")
			for _, tier := range kernelTiers {
				withKernelEnv(t, tier, func() {
					checkExactRoutes(t, label+" MICCO_KERNEL="+tier, a, b, want, wantSq)
				})
			}
		}
	}
}

// TestBlockKernelSpecialValues: signed zeros throughout, one A row of NaN
// and Inf entries, one B column of Inf entries (so Inf-Inf and 0*Inf
// arise mid-chain as well) and two A rows scaled until their products go
// denormal come out of every tier with the scalar kernel's bits (NaNs as
// NaNs): the vector kernels round as it does and flush nothing to zero.
func TestBlockKernelSpecialValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1502))
	for _, n := range []int{20, 33} { // both remainders; tile seam
		a, _ := NewRandom(Desc{ID: 1, Rank: RankMeson, Dim: n, Batch: 2}, rng)
		b, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: n, Batch: 2}, rng)
		for _, x := range []*Tensor{a, b} {
			for i := range x.Data {
				switch rng.Intn(8) {
				case 0:
					x.Data[i] = complex(math.Copysign(0, -1), imag(x.Data[i]))
				case 1:
					x.Data[i] = complex(real(x.Data[i]), 0)
				}
			}
		}
		for g := 0; g < 2; g++ {
			for k := 0; k < n; k++ {
				a.Set2(g, 1, k, a.At2(g, 1, k)*0x1p-1030) // row 1: denormal inputs
				a.Set2(g, n-1, k, a.At2(g, n-1, k)*0x1p-1015)
			}
			a.Set2(g, 2, 3, complex(math.NaN(), 1))
			a.Set2(g, 2, n-2, complex(math.Inf(1), math.Inf(-1)))
			b.Set2(g, 4, 5, complex(math.Inf(-1), 0))
			b.Set2(g, n-1, 5, complex(2, math.Inf(1)))
		}
		want, wantSq := scalarRef(a, b), scalarRef(a, a)
		var nan, inf, denormal, normal int
		for _, v := range want.Data {
			for _, f := range [2]float64{real(v), imag(v)} {
				switch {
				case math.IsNaN(f):
					nan++
				case math.IsInf(f, 0):
					inf++
				case f != 0 && math.Abs(f) < 0x1p-1022:
					denormal++
				case f != 0:
					normal++
				}
			}
		}
		if nan == 0 || inf == 0 || denormal == 0 || normal < len(want.Data) {
			t.Fatalf("n=%d: reference has %d NaN, %d Inf, %d denormal, %d normal values: the case lost its point", n, nan, inf, denormal, normal)
		}
		for _, tier := range kernelTiers {
			withKernelEnv(t, tier, func() {
				checkExactRoutes(t, "special n="+itoa(n)+" MICCO_KERNEL="+tier, a, b, want, wantSq)
			})
		}
	}
}
