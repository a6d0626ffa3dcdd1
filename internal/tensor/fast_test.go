package tensor

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"micco/internal/cpu"
)

// withKernelEnv runs f with MICCO_KERNEL forced to val and the dispatch
// re-resolved, restoring both afterwards. Tests using it must not run in
// parallel.
func withKernelEnv(t *testing.T, val string, f func()) {
	t.Helper()
	old, had := os.LookupEnv(cpu.EnvKernel)
	os.Setenv(cpu.EnvKernel, val)
	resolveDispatch()
	defer func() {
		if had {
			os.Setenv(cpu.EnvKernel, old)
		} else {
			os.Unsetenv(cpu.EnvKernel)
		}
		resolveDispatch()
	}()
	f()
}

// kernelTiers are the MICCO_KERNEL values, weakest first.
var kernelTiers = []string{"scalar", "avx2", "fma", "avx512"}

// fastULPBound returns the per-element accuracy bound of ModeFast
// relative to ModeExact (DESIGN.md §12): for output element (i,j) of an
// n x n group product, each real component may differ by at most
// C * n * eps * mag(i,j), where mag(i,j) = sum_k (|ar|+|ai|)(|br|+|bi|)
// bounds the magnitude flowing through either accumulation chain and
// C = 8 covers the reassociation slack of both chains.
func fastULPBound(n int, mag float64) float64 {
	const eps = 0x1p-53
	return 8 * float64(n) * eps * mag
}

// checkFastAgainstExact verifies the documented ULP contract between the
// two modes for one operand pair on the CURRENT dispatch setting.
func checkFastAgainstExact(t *testing.T, a, b *Tensor, label string) {
	t.Helper()
	exact, err := ContractMode(a, b, 900, 1, ModeExact)
	if err != nil {
		t.Fatalf("%s: exact: %v", label, err)
	}
	fast, err := ContractMode(a, b, 900, 1, ModeFast)
	if err != nil {
		t.Fatalf("%s: fast: %v", label, err)
	}
	n := a.Dim
	groups := len(a.Data) / (n * n)
	for g := 0; g < groups; g++ {
		off := g * n * n
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var mag float64
				for k := 0; k < n; k++ {
					av := a.Data[off+i*n+k]
					bv := b.Data[off+k*n+j]
					mag += (math.Abs(real(av)) + math.Abs(imag(av))) *
						(math.Abs(real(bv)) + math.Abs(imag(bv)))
				}
				bound := fastULPBound(n, mag)
				e := exact.Data[off+i*n+j]
				f := fast.Data[off+i*n+j]
				if d := math.Abs(real(e) - real(f)); d > bound {
					t.Fatalf("%s: group %d elem (%d,%d) re: |%g - %g| = %g > bound %g",
						label, g, i, j, real(e), real(f), d, bound)
				}
				if d := math.Abs(imag(e) - imag(f)); d > bound {
					t.Fatalf("%s: group %d elem (%d,%d) im: |%g - %g| = %g > bound %g",
						label, g, i, j, imag(e), imag(f), d, bound)
				}
			}
		}
	}
}

// TestFastModeULPBound is the property test of the Fast-tier accuracy
// contract: across random dimensions straddling soaMinDim, both ranks,
// and every dispatch route MICCO_KERNEL can force, ModeFast stays within
// the documented per-element bound of ModeExact.
func TestFastModeULPBound(t *testing.T) {
	rng := rand.New(rand.NewSource(701))
	dims := []int{3, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 48, 64, 100}
	for _, tier := range kernelTiers {
		withKernelEnv(t, tier, func() {
			for _, dim := range dims {
				for _, rank := range []int{RankMeson, RankBaryon} {
					if rank == RankBaryon && dim > 33 {
						continue // keep runtime bounded; coverage unchanged
					}
					d := Desc{ID: 1, Rank: rank, Dim: dim, Batch: 2}
					a, _ := NewRandom(d, rng)
					b, _ := NewRandom(Desc{ID: 2, Rank: rank, Dim: dim, Batch: 2}, rng)
					checkFastAgainstExact(t, a, b, tier+" "+d.String())
				}
			}
		})
	}
}

// TestFastModeDeterministic: for a fixed machine and dispatch setting,
// ModeFast is deterministic and invariant under the worker count (groups
// are independent; only the fan-out changes).
func TestFastModeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(702))
	for _, d := range []Desc{
		{ID: 1, Rank: RankMeson, Dim: 40, Batch: 7},
		{ID: 1, Rank: RankBaryon, Dim: 17, Batch: 3},
	} {
		a, _ := NewRandom(d, rng)
		b, _ := NewRandom(Desc{ID: 2, Rank: d.Rank, Dim: d.Dim, Batch: d.Batch}, rng)
		ref, err := ContractMode(a, b, 3, 1, ModeFast)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2, 8, 64} {
			got, err := ContractMode(a, b, 3, w, ModeFast)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, got, ref, d.String()+" fast workers")
		}
	}
}

// TestFastModeAliasing: the ContractInto aliasing contract (dst may
// overlap a or b) holds on every dispatch route ModeFast can take.
func TestFastModeAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(703))
	cases := []Desc{
		{ID: 1, Rank: RankMeson, Dim: 4, Batch: 2},  // below soaMinDim: fallback
		{ID: 1, Rank: RankMeson, Dim: 12, Batch: 2}, // FMA-eligible, AVX-512 not
		{ID: 1, Rank: RankMeson, Dim: 24, Batch: 3}, // AVX-512-eligible
		{ID: 1, Rank: RankBaryon, Dim: 17, Batch: 2},
	}
	for _, tier := range kernelTiers {
		withKernelEnv(t, tier, func() {
			for _, d := range cases {
				a, _ := NewRandom(d, rng)
				b, _ := NewRandom(Desc{ID: 2, Rank: d.Rank, Dim: d.Dim, Batch: d.Batch}, rng)
				want, err := ContractMode(a, b, 3, 2, ModeFast)
				if err != nil {
					t.Fatal(err)
				}
				overA := a.Clone(1)
				if err := ContractIntoMode(overA, overA, b, 3, 2, ModeFast); err != nil {
					t.Fatal(err)
				}
				equalBits(t, overA, want, tier+" "+d.String()+" fast dst==a")
				overB := b.Clone(2)
				if err := ContractIntoMode(overB, a, overB, 3, 2, ModeFast); err != nil {
					t.Fatal(err)
				}
				equalBits(t, overB, want, tier+" "+d.String()+" fast dst==b")
			}
		})
	}
}

// TestFastModeExactFallback: when the override denies every fused tier,
// ModeFast must be BIT-identical to ModeExact — it runs the same code.
func TestFastModeExactFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(704))
	for _, tier := range []string{"scalar", "avx2"} {
		withKernelEnv(t, tier, func() {
			d := Desc{ID: 1, Rank: RankMeson, Dim: 33, Batch: 2}
			a, _ := NewRandom(d, rng)
			b, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: 33, Batch: 2}, rng)
			exact, err := ContractMode(a, b, 3, 2, ModeExact)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := ContractMode(a, b, 3, 2, ModeFast)
			if err != nil {
				t.Fatal(err)
			}
			equalBits(t, fast, exact, tier+" fast==exact fallback")
		})
	}
}

// TestExactModeIgnoresFastTiers: ModeExact output must not change when
// the override unlocks (or denies) the fused tiers — the exact tier caps
// at AVX2 by contract, so the fingerprints the numeric engine pins can
// never depend on FMA availability.
func TestExactModeIgnoresFastTiers(t *testing.T) {
	rng := rand.New(rand.NewSource(705))
	d := Desc{ID: 1, Rank: RankMeson, Dim: 48, Batch: 3}
	a, _ := NewRandom(d, rng)
	b, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: 48, Batch: 3}, rng)
	var ref *Tensor
	for i, tier := range kernelTiers[1:] { // scalar changes the lane split, AVX2+ must agree
		withKernelEnv(t, tier, func() {
			got, err := ContractMode(a, b, 3, 2, ModeExact)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = got
				return
			}
			equalBits(t, got, ref, "exact under MICCO_KERNEL="+tier)
		})
	}
	// And the scalar route agrees too — that is the seed determinism
	// contract (vector lanes round identically to scalar).
	withKernelEnv(t, "scalar", func() {
		got, err := ContractMode(a, b, 3, 2, ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		equalBits(t, got, ref, "exact under MICCO_KERNEL=scalar")
	})
}

// TestDispatchOverrideFlags: the resolved use* flags must equal hardware
// capability capped by the override, for every override value.
func TestDispatchOverrideFlags(t *testing.T) {
	caps := map[string]kernelTier{"scalar": tierScalar, "avx2": tierAVX2, "fma": tierFMA, "avx512": tierAVX512}
	for tier, cap := range caps {
		withKernelEnv(t, tier, func() {
			if kernelCap != cap {
				t.Errorf("MICCO_KERNEL=%s: kernelCap = %v, want %v", tier, kernelCap, cap)
			}
			if want := hwAVX2 && cap >= tierAVX2; useAVX2 != want {
				t.Errorf("MICCO_KERNEL=%s: useAVX2 = %v, want %v", tier, useAVX2, want)
			}
			if want := hwFMA && cap >= tierFMA; useFMA != want {
				t.Errorf("MICCO_KERNEL=%s: useFMA = %v, want %v", tier, useFMA, want)
			}
			if want := hwAVX512 && cap >= tierAVX512; useAVX512 != want {
				t.Errorf("MICCO_KERNEL=%s: useAVX512 = %v, want %v", tier, useAVX512, want)
			}
		})
	}
	// An unrecognized value must behave like no override.
	withKernelEnv(t, "warp9", func() {
		if kernelCap != tierAVX512 {
			t.Errorf("unrecognized override: kernelCap = %v, want tierAVX512", kernelCap)
		}
	})
}

// TestKernelInfo checks the human-readable dispatch summary under every
// MICCO_KERNEL value: the exact tier it names must be the kernel exact
// mode actually runs — the AVX-512 block kernel when the cap allows it,
// the AVX2 row kernel under avx2/fma (exact mode never uses FMA), scalar
// under scalar — each degraded to what the hardware has.
func TestKernelInfo(t *testing.T) {
	if s := KernelInfo(); s == "" {
		t.Fatal("KernelInfo() empty")
	}
	caps := map[string]kernelTier{"scalar": tierScalar, "avx2": tierAVX2, "fma": tierFMA, "avx512": tierAVX512}
	for env, cap := range caps {
		exact := tierScalar
		switch {
		case hwAVX512 && cap >= tierAVX512:
			exact = tierAVX512
		case hwAVX2 && cap >= tierAVX2:
			exact = tierAVX2
		}
		withKernelEnv(t, env, func() {
			s := KernelInfo()
			if want := "exact: " + exact.String() + ";"; !containsStr(s, want) {
				t.Errorf("MICCO_KERNEL=%s: KernelInfo() = %q, want substring %q", env, s, want)
			}
			if want := cpu.EnvKernel + "=" + env; !containsStr(s, want) {
				t.Errorf("MICCO_KERNEL=%s: KernelInfo() = %q, want substring %q", env, s, want)
			}
		})
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestModeString pins the KernelMode names used in logs and flags.
func TestModeString(t *testing.T) {
	if ModeExact.String() != "exact" || ModeFast.String() != "fast" {
		t.Errorf("mode strings = %q/%q", ModeExact.String(), ModeFast.String())
	}
}
