package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// interleaved is the reference a split tensor is checked against: the
// same elements as one []complex128 in index order, drawn from the same
// stream the way NewRandom draws them (real part, then imaginary part,
// element by element).
func interleaved(d Desc, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	ref := make([]complex128, d.Elems())
	for i := range ref {
		re := rng.Float64()*2 - 1
		ref[i] = complex(re, rng.Float64()*2-1)
	}
	return ref
}

// mustRandom is NewRandom at the given seed, for a valid desc.
func mustRandom(d Desc, seed int64) *Tensor {
	x, err := NewRandom(d, rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	return x
}

// nanBuf is a recycled buffer of n values that all read NaN.
func nanBuf(n int) []float64 {
	buf := make([]float64, n)
	for i := range buf {
		buf[i] = math.NaN()
	}
	return buf
}

// sameComplex is bitwise equality of both parts.
func sameComplex(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// checkPlanes demands that t's data is ref split into a real plane and an
// imaginary plane, bit for bit.
func checkPlanes(t *testing.T, x *Tensor, ref []complex128, label string) {
	t.Helper()
	if len(x.Data) != 2*len(ref) {
		t.Fatalf("%s: %d values, want %d", label, len(x.Data), 2*len(ref))
	}
	for i, v := range ref {
		if !sameComplex(complex(x.Data[i], x.Data[len(ref)+i]), v) {
			t.Fatalf("%s: element %d = (%v, %v), want %v", label, i, x.Data[i], x.Data[len(ref)+i], v)
		}
	}
}

// TestSplitLayout pins the storage layout — Elems() real parts, then
// Elems() imaginary parts, each plane row-major and batch-outermost — and
// every accessor against an interleaved []complex128 reference computed
// here with complex128 arithmetic, bit for bit, on both ranks. It also
// pins NewRandom's stream order: at seed 1 the first draws land as real,
// imaginary, real, imaginary, ... of elements 0, 1, 2. Every draw is made
// twice, into fresh storage (NewRandom) and in place into a recycled
// buffer filled with NaN (NewRandomIn), and both must give these bits.
func TestSplitLayout(t *testing.T) {
	meson2 := Desc{Rank: RankMeson, Dim: 2, Batch: 1}
	firstIn, _ := NewRandomIn(meson2, nanBuf(2*int(meson2.Elems())+3), rand.New(rand.NewSource(1)))
	for label, first := range map[string]*Tensor{"NewRandom": mustRandom(meson2, 1), "NewRandomIn": firstIn} {
		for i, want := range []complex128{
			complex(0x1.acb04420ff9f8p-03, 0x1.c314d07af9f8cp-01),
			complex(0x1.5104dc7669574p-02, -0x1.fe3ed1212ca1p-04),
			complex(-0x1.34af4fd6c723cp-03, 0x1.7e9d1860d1d68p-02),
		} {
			if got := complex(first.Data[i], first.Data[4+i]); !sameComplex(got, want) {
				t.Errorf("%s seed 1 element %d = %x, want %x", label, i, got, want)
			}
		}
	}

	for _, d := range []Desc{
		{ID: 1, Rank: RankMeson, Dim: 5, Batch: 3},
		{ID: 1, Rank: RankBaryon, Dim: 3, Batch: 2},
	} {
		label := d.String()
		x := mustRandom(d, 2)
		ref := interleaved(d, 2)
		checkPlanes(t, x, ref, label+" NewRandom")
		in, err := NewRandomIn(d, nanBuf(len(x.Data)), rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		checkPlanes(t, in, ref, label+" NewRandomIn")

		// At and Set address the element ref indexes.
		n := d.Dim
		for b := 0; b < d.Batch; b++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if d.Rank == RankMeson {
						k := (b*n+i)*n + j
						if !sameComplex(x.At2(b, i, j), ref[k]) {
							t.Fatalf("%s: At2(%d,%d,%d) = %v, want %v", label, b, i, j, x.At2(b, i, j), ref[k])
						}
						continue
					}
					for l := 0; l < n; l++ {
						k := ((b*n+i)*n+j)*n + l
						if !sameComplex(x.At3(b, i, j, l), ref[k]) {
							t.Fatalf("%s: At3(%d,%d,%d,%d) = %v, want %v", label, b, i, j, l, x.At3(b, i, j, l), ref[k])
						}
					}
				}
			}
		}
		set := x.Clone(2)
		if d.Rank == RankMeson {
			set.Set2(1, 2, 3, complex(7, -8))
			ref[(1*n+2)*n+3] = complex(7, -8)
		} else {
			set.Set3(1, 2, 0, 1, complex(7, -8))
			ref[((1*n+2)*n+0)*n+1] = complex(7, -8)
		}
		checkPlanes(t, set, ref, label+" Set")

		// Clone copies both planes; Trace sums the diagonal's complex values
		// in the order the interleaved loop does.
		c := set.Clone(9)
		checkPlanes(t, c, ref, label+" Clone")
		if c.ID != 9 || c.Desc != (Desc{ID: 9, Rank: d.Rank, Dim: n, Batch: d.Batch}) {
			t.Errorf("%s: Clone desc %v", label, c.Desc)
		}
		var tr complex128
		group, step := n*n, n+1
		if d.Rank == RankBaryon {
			group, step = n*n*n, n*n+n+1
		}
		for b := 0; b < d.Batch; b++ {
			for i := 0; i < n; i++ {
				tr += ref[b*group+i*step]
			}
		}
		if got, err := c.Trace(); err != nil || !sameComplex(got, tr) {
			t.Errorf("%s: Trace = %v (%v), want %v", label, got, err, tr)
		}

		// Scale and AddTo are complex128 multiplication and addition.
		s := complex(0.75, -1.25)
		scaled := append([]complex128(nil), ref...)
		for i := range scaled {
			scaled[i] *= s
		}
		checkPlanes(t, c.Clone(3).Scale(s), scaled, label+" Scale")
		sum := append([]complex128(nil), ref...)
		for i := range sum {
			sum[i] += scaled[i]
		}
		acc := c.Clone(4)
		if err := acc.AddTo(c.Clone(5).Scale(s)); err != nil {
			t.Fatal(err)
		}
		checkPlanes(t, acc, sum, label+" AddTo")

		// Norm is one chain over the elements in index order.
		var ss float64
		for _, v := range sum {
			ss += real(v)*real(v) + imag(v)*imag(v)
		}
		if got, want := acc.Norm(), math.Sqrt(ss); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Norm = %x, want %x", label, got, want)
		}

		// AllClose reads the modulus of the complex difference.
		far := acc.Clone(6)
		far.Data[len(ref)] += 0.5 // imaginary part of element 0
		if !AllClose(acc, far, 0.51) || AllClose(acc, far, 0.49) {
			t.Errorf("%s: AllClose does not measure the imaginary plane", label)
		}
	}
}

// TestNewRandomInStorage: NewRandomIn draws into the buffer it is handed
// when that holds the tensor — as a slice of exactly 2*Elems() values over
// the same storage — allocates when it does not, and refuses an invalid
// description as NewRandom does.
func TestNewRandomInStorage(t *testing.T) {
	d := Desc{Rank: RankBaryon, Dim: 3, Batch: 2}
	vals := 2 * int(d.Elems())
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		buf   []float64
		fresh bool
	}{{nanBuf(vals + 5), false}, {nanBuf(vals), false}, {nanBuf(vals - 1), true}, {nil, true}} {
		x, err := NewRandomIn(d, c.buf, rng)
		if err != nil {
			t.Fatal(err)
		}
		fresh := len(c.buf) == 0 || &x.Data[0] != &c.buf[0]
		if len(x.Data) != vals || fresh != c.fresh {
			t.Errorf("a buffer of %d values: data of %d values, fresh storage %v; want %d values, fresh %v",
				len(c.buf), len(x.Data), fresh, vals, c.fresh)
		}
	}
	if _, err := NewRandomIn(Desc{Rank: RankMeson}, nanBuf(vals), rng); err == nil {
		t.Error("invalid desc accepted")
	}
}

// TestNorms: the four-chain norm equals Norm bit for bit — for 1 to 9
// tensors (whole quartets plus the 1–3 left over), for quartets of mixed
// lengths (which take the one-tensor fallback), and with NaN, ±Inf, −0
// and denormal values in the data.
func TestNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0x1p-1060, -0x1p-1070}
	build := func(dims []int, poison int) []*Tensor {
		ts := make([]*Tensor, len(dims))
		for i, n := range dims {
			ts[i], _ = NewRandom(Desc{ID: uint64(i), Rank: RankMeson, Dim: n, Batch: 2}, rng)
			if i < poison {
				ts[i].Data[rng.Intn(len(ts[i].Data))] = special[i%len(special)]
			}
			if i%3 == 2 { // squares in the denormal range
				for k := range ts[i].Data {
					ts[i].Data[k] *= 0x1p-530
				}
			}
		}
		return ts
	}
	check := func(ts []*Tensor, label string) {
		t.Helper()
		got := make([]float64, len(ts))
		Norms(got, ts)
		for i, x := range ts {
			if want := x.Norm(); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Errorf("%s: tensor %d norm %x, want Norm's %x", label, i, got[i], want)
			}
		}
	}
	for count := 1; count <= 9; count++ {
		dims := make([]int, count)
		for i := range dims {
			dims[i] = 9
		}
		check(build(dims, 0), "equal lengths count="+itoa(count))
		check(build(dims, count), "special values count="+itoa(count))
	}
	check(build([]int{9, 9, 8, 9, 9}, 0), "mixed lengths")
	check(build([]int{4, 5, 6, 7, 8, 9, 10, 11}, 8), "mixed lengths, special values")

	// The quartet path itself, so a fallback taken everywhere cannot hide it.
	ts := build([]int{9, 9, 9, 9}, 4)
	n0, n1, n2, n3 := norm4(ts[0], ts[1], ts[2], ts[3])
	for i, got := range []float64{n0, n1, n2, n3} {
		if want := ts[i].Norm(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("norm4 tensor %d = %x, want %x", i, got, want)
		}
	}
}
