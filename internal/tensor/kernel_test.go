package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// equalBits reports value-wise bitwise equality of both planes (including
// zero signs).
func equalBits(t *testing.T, got, want *Tensor, label string) {
	t.Helper()
	if got.Rank != want.Rank || got.Dim != want.Dim || got.Batch != want.Batch {
		t.Fatalf("%s: shape %v vs %v", label, got.Desc, want.Desc)
	}
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: %d values, want %d", label, len(got.Data), len(want.Data))
	}
	for i, g := range got.Data {
		if w := want.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: value %d = %v, want %v (bit-exact)", label, i, g, w)
		}
	}
}

// withScalarKernel runs f with the assembly micro-kernels disabled,
// restoring the default afterwards. Tests using it must not run in
// parallel.
func withScalarKernel(t *testing.T, f func()) {
	t.Helper()
	forceScalarKernel = true
	defer func() { forceScalarKernel = false }()
	f()
}

// mesonView presents a baryon tensor's Batch*Dim independent DxD groups
// as a meson batch over the same data, which is what naiveMatMul takes.
func mesonView(t *Tensor) *Tensor {
	d := t.Desc
	if d.Rank == RankBaryon {
		d.Rank, d.Batch = RankMeson, d.Batch*d.Dim
	}
	return &Tensor{Desc: d, Data: t.Data}
}

// naiveRef is the interleaved-complex triple loop on either rank.
func naiveRef(a, b *Tensor) *Tensor { return naiveMatMul(mesonView(a), mesonView(b)) }

// TestPackedKernelMatchesNaiveExact pins the determinism contract: the
// packed kernel accumulates each output element's products in ascending k
// order with individually rounded multiplies, which is exactly what the
// naive reference does, so results must be bit-identical — across awkward
// dimensions (narrower than the 8-column vector tile, non-multiples of it,
// primes, exact tile multiples) and batch sizes.
func TestPackedKernelMatchesNaiveExact(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 9, 11, 15, 16, 17, 23, 31, 32, 47, 48, 49, 63, 64, 65, 96, 113, 128} {
		for _, batch := range []int{1, 3} {
			a, _ := NewRandom(Desc{ID: 1, Rank: RankMeson, Dim: dim, Batch: batch}, rng)
			b, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: dim, Batch: batch}, rng)
			got, err := Contract(a, b, 3, 2)
			if err != nil {
				t.Fatalf("dim=%d batch=%d: %v", dim, batch, err)
			}
			want := naiveMatMul(a, b)
			equalBits(t, got, want, "dim="+itoa(dim)+" batch="+itoa(batch))
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestKernelPathsBitIdentical cross-checks the vector micro-kernels, the
// scalar split-complex kernel and the naive interleaved-complex reference
// element for element, on meson and baryon ranks, from groups that are
// all scalar tail (dims 1-7) to whole tiles.
func TestKernelPathsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	cases := []Desc{
		{ID: 1, Rank: RankMeson, Dim: 1, Batch: 3},
		{ID: 1, Rank: RankMeson, Dim: 5, Batch: 2},
		{ID: 1, Rank: RankMeson, Dim: 8, Batch: 2},
		{ID: 1, Rank: RankMeson, Dim: 12, Batch: 1},
		{ID: 1, Rank: RankMeson, Dim: 33, Batch: 3},
		{ID: 1, Rank: RankMeson, Dim: 64, Batch: 2},
		{ID: 1, Rank: RankBaryon, Dim: 7, Batch: 2},
		{ID: 1, Rank: RankBaryon, Dim: 9, Batch: 1},
		{ID: 1, Rank: RankBaryon, Dim: 16, Batch: 2},
	}
	for _, d := range cases {
		a, _ := NewRandom(d, rng)
		b, _ := NewRandom(Desc{ID: 2, Rank: d.Rank, Dim: d.Dim, Batch: d.Batch}, rng)
		var vec, scalar *Tensor
		var err error
		if vec, err = Contract(a, b, 3, 2); err != nil {
			t.Fatal(err)
		}
		withScalarKernel(t, func() {
			scalar, err = Contract(a, b, 3, 2)
		})
		if err != nil {
			t.Fatal(err)
		}
		equalBits(t, scalar, vec, d.String()+" scalar vs vector")
		equalBits(t, mesonView(vec), naiveRef(a, b), d.String()+" vector vs naive")
	}
}

// TestPackedKernelWorkerInvarianceExact: the packed path must be
// bit-identical at any worker count (groups are independent; only the
// fan-out changes).
func TestPackedKernelWorkerInvarianceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, d := range []Desc{
		{ID: 1, Rank: RankMeson, Dim: 40, Batch: 7},
		{ID: 1, Rank: RankBaryon, Dim: 9, Batch: 3},
	} {
		a, _ := NewRandom(d, rng)
		b, _ := NewRandom(Desc{ID: 2, Rank: d.Rank, Dim: d.Dim, Batch: d.Batch}, rng)
		ref, err := Contract(a, b, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 8, 64} {
			got, err := Contract(a, b, 3, w)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, got, ref, d.String()+" workers")
		}
	}
}

// TestContractIntoDirtyDst: a reused destination arriving dirty (NaNs,
// stale values, shorter length than capacity) must still produce output
// bit-identical to a fresh allocation.
func TestContractIntoDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for _, dim := range []int{4, 9, 32} { // all tail, tile+tail, tile-exact
		d := Desc{ID: 1, Rank: RankMeson, Dim: dim, Batch: 2}
		a, _ := NewRandom(d, rng)
		b, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: dim, Batch: 2}, rng)
		want, err := Contract(a, b, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		vals := 2 * int(d.Elems())
		dirty := make([]float64, vals+5) // extra capacity on purpose
		for i := range dirty {
			dirty[i] = math.NaN()
		}
		dst := &Tensor{Desc: Desc{ID: 99, Rank: RankMeson, Dim: 1, Batch: 1}, Data: dirty[:1]}
		if err := ContractInto(dst, a, b, 3, 2); err != nil {
			t.Fatalf("dim=%d: %v", dim, err)
		}
		if dst.ID != 3 || dst.Dim != dim || dst.Batch != 2 || len(dst.Data) != vals {
			t.Fatalf("dim=%d: dst desc/len not updated: %v len=%d", dim, dst.Desc, len(dst.Data))
		}
		equalBits(t, dst, want, "dirty dst dim="+itoa(dim))
		// Undersized capacity must transparently reallocate.
		small := &Tensor{Data: make([]float64, 1)}
		if err := ContractInto(small, a, b, 3, 2); err != nil {
			t.Fatal(err)
		}
		equalBits(t, small, want, "undersized dst dim="+itoa(dim))
	}
}

// TestContractIntoAliasing: dst sharing storage with an operand is
// documented as safe — the kernels store output rows straight into dst's
// planes, so a group of an operand dst aliases is copied before any of
// that group's output is stored. dst==a, dst==b and dst==a==b run under
// every MICCO_KERNEL tier with one worker and with several, on groups
// narrower than the vector tile and wider, through the block kernel's row
// remainder, and every result must carry the naive reference's bits.
func TestContractIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	cases := []Desc{
		{ID: 1, Rank: RankMeson, Dim: 4, Batch: 2},  // all scalar tail
		{ID: 1, Rank: RankMeson, Dim: 24, Batch: 3}, // tiles
		{ID: 1, Rank: RankMeson, Dim: 18, Batch: 2}, // block rows + row remainder
		{ID: 1, Rank: RankBaryon, Dim: 3, Batch: 2}, // all scalar tail
		{ID: 1, Rank: RankBaryon, Dim: 9, Batch: 2}, // tile + tail
	}
	for _, d := range cases {
		a, _ := NewRandom(d, rng)
		b, _ := NewRandom(Desc{ID: 2, Rank: d.Rank, Dim: d.Dim, Batch: d.Batch}, rng)
		want, wantSq := naiveRef(a, b), naiveRef(a, a)
		for _, tier := range kernelTiers {
			withKernelEnv(t, tier, func() {
				for _, workers := range []int{1, 3} {
					label := d.String() + " MICCO_KERNEL=" + tier + " workers=" + itoa(workers)
					overA := a.Clone(1)
					if err := ContractInto(overA, overA, b, 3, workers); err != nil {
						t.Fatal(err)
					}
					equalBits(t, mesonView(overA), want, label+" dst==a")
					overB := b.Clone(2)
					if err := ContractInto(overB, a, overB, 3, workers); err != nil {
						t.Fatal(err)
					}
					equalBits(t, mesonView(overB), want, label+" dst==b")
					self := a.Clone(3)
					if err := ContractInto(self, self, self, 3, workers); err != nil {
						t.Fatal(err)
					}
					equalBits(t, mesonView(self), wantSq, label+" dst==a==b")
				}
			})
		}
	}
}

func TestContractIntoErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	a, _ := NewRandom(Desc{ID: 1, Rank: RankMeson, Dim: 8, Batch: 1}, rng)
	b, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: 9, Batch: 1}, rng)
	if err := ContractInto(nil, a, a, 3, 1); err == nil {
		t.Error("nil dst: want error")
	}
	if err := ContractInto(&Tensor{}, a, b, 3, 1); err == nil {
		t.Error("shape mismatch: want error")
	}
	meta := &Tensor{Desc: Desc{ID: 4, Rank: RankMeson, Dim: 8, Batch: 1}}
	if err := ContractInto(&Tensor{}, a, meta, 5, 1); err == nil {
		t.Error("metadata-only operand: want error")
	}
}

// TestContractIntoSteadyStateAllocs: the pooled path with a right-sized
// destination and a single worker must not allocate at all — also when
// the destination is an operand and the pack buffer serves its copy. Under
// -race a sync.Pool drops a random share of what it is handed, so there the
// calls run and the count is only logged.
func TestContractIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	d := Desc{ID: 1, Rank: RankMeson, Dim: 48, Batch: 2}
	a, _ := NewRandom(d, rng)
	b, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: 48, Batch: 2}, rng)
	dst := &Tensor{Data: make([]float64, 2*d.Elems())}
	for _, c := range []struct {
		name string
		x    *Tensor
	}{{"fresh", b}, {"dst==b", dst}} {
		if err := ContractInto(dst, a, c.x, 3, 1); err != nil { // warm the pool
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if err := ContractInto(dst, a, c.x, 3, 1); err != nil {
				t.Fatal(err)
			}
		})
		switch {
		case raceEnabled:
			t.Logf("%s: steady-state ContractInto allocates %.1f objects/op under -race", c.name, allocs)
		case allocs != 0:
			t.Errorf("%s: steady-state ContractInto allocates %.1f objects/op, want 0", c.name, allocs)
		}
	}
}

// TestPackedKernelIdentity sanity-checks the packed path against an exact
// algebraic identity (A*I == A) where every product is exact in IEEE
// arithmetic up to the zero-sign differences the norm ignores.
func TestPackedKernelIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	d := Desc{ID: 1, Rank: RankMeson, Dim: 19, Batch: 2}
	a, _ := NewRandom(d, rng)
	id, err := NewIdentity(Desc{ID: 2, Rank: RankMeson, Dim: 19, Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Contract(a, id, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Data {
		if v != a.Data[i] {
			t.Fatalf("A*I != A at value %d: %v vs %v", i, v, a.Data[i])
		}
	}
}
