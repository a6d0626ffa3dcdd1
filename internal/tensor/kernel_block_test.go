package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// scalarRef multiplies a and b group by group with rowKernelScalar alone,
// slicing the planes by hand: the chain every exact route must reproduce,
// computed without any of the code under test around it.
func scalarRef(a, b *Tensor) *Tensor {
	n := a.Dim
	out := MustNew(Desc{ID: 1000, Rank: RankMeson, Dim: n, Batch: a.Batch})
	h := len(a.Data) / 2
	for g := 0; g < a.Batch; g++ {
		lo, hi := g*n*n, (g+1)*n*n
		aRe, aIm := a.Data[lo:hi], a.Data[h+lo:h+hi]
		bRe, bIm := b.Data[lo:hi], b.Data[h+lo:h+hi]
		cRe, cIm := out.Data[lo:hi], out.Data[h+lo:h+hi]
		for r := 0; r < n*n; r += n {
			rowKernelScalar(cRe[r:r+n], cIm[r:r+n], aRe[r:r+n], aIm[r:r+n], bRe, bIm, n, 0)
		}
	}
	return out
}

// clone copies t so an aliased destination cannot disturb the original.
func clone(t *Tensor) *Tensor {
	return &Tensor{Desc: t.Desc, Data: append([]float64(nil), t.Data...)}
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
		t.Fatalf("%s: %d values, want %d", label, len(got.Data), len(want.Data))
	}
	for i, g := range got.Data {
		if w := want.Data[i]; !same(g, w) {
			t.Fatalf("%s: value %d = %v, want %v (bit-exact)", label, i, g, w)
		}
	}
}

// checkExactRoutes runs a x b through ContractInto and ContractBatch, with
// one worker and with several — into a fresh destination, into a (dst
// aliases a), into b (dst aliases b), as a x a with one tensor on both
// sides, and as a x a into a itself (dst == a == b) — and demands the bits
// of want (resp. wantSq for a x a) from every one of them.
func checkExactRoutes(t *testing.T, label string, a, b, want, wantSq *Tensor) {
	t.Helper()
	type route struct {
		name      string
		dst, x, y *Tensor
		want      *Tensor
	}
	routes := func() []route {
		a1, b1, a2, a3 := clone(a), clone(b), clone(a), clone(a)
		return []route{
			{"fresh", &Tensor{}, a, b, want},
			{"dst=a", a1, a1, b, want},
			{"dst=b", b1, a, b1, want},
			{"a==b", &Tensor{}, a2, a2, wantSq},
			{"dst=a=b", a3, a3, a3, wantSq},
		}
	}
	for _, workers := range []int{1, 3} {
		w := " workers=" + itoa(workers)
		for _, r := range routes() {
			if err := ContractInto(r.dst, r.x, r.y, 7, workers); err != nil {
				t.Fatalf("%s ContractInto %s%s: %v", label, r.name, w, err)
			}
			equalBitsOrNaN(t, r.dst, r.want, label+" ContractInto "+r.name+w)
		}
		rs := routes()
		ops := make([]BatchOp, len(rs))
		for i, r := range rs {
			ops[i] = BatchOp{Dst: r.dst, A: r.x, B: r.y, OutID: 7}
		}
		if err := ContractBatch(ops, workers); err != nil {
			t.Fatalf("%s ContractBatch%s: %v", label, w, err)
		}
		for i, r := range rs {
			equalBitsOrNaN(t, ops[i].Dst, r.want, label+" ContractBatch "+r.name+w)
		}
	}
}

// TestBlockKernelExact: under every MICCO_KERNEL tier, every route must
// reproduce rowKernelScalar's bits — and so the naive complex loop's —
// across the block kernel's row and column seams, with the destination
// fresh or aliasing an operand, at one worker and several. ContractInto
// and ContractBatch share contractGroup, so they agree on every row.
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
			re, im := x.planes()
			for i := range re {
				switch rng.Intn(8) {
				case 0:
					re[i] = math.Copysign(0, -1)
				case 1:
					im[i] = 0
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
		for _, f := range want.Data {
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
		if nan == 0 || inf == 0 || denormal == 0 || normal < len(want.Data)/2 {
			t.Fatalf("n=%d: reference has %d NaN, %d Inf, %d denormal, %d normal values: the case lost its point", n, nan, inf, denormal, normal)
		}
		for _, tier := range kernelTiers {
			withKernelEnv(t, tier, func() {
				checkExactRoutes(t, "special n="+itoa(n)+" MICCO_KERNEL="+tier, a, b, want, wantSq)
			})
		}
	}
}
