package tensor

import (
	"math/rand"
	"os"
	"strings"
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
var kernelTiers = []string{"scalar", "avx2", "avx512"}

// TestExactBitsInvariantUnderKernelOverride: the output must not move a
// bit whatever MICCO_KERNEL says — a recognised tier, or a value dispatch
// ignores (the removed "fma", a typo) — so the fingerprints the numeric
// engine pins can never depend on which vector unit ran.
func TestExactBitsInvariantUnderKernelOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(705))
	d := Desc{ID: 1, Rank: RankMeson, Dim: 48, Batch: 3}
	a, _ := NewRandom(d, rng)
	b, _ := NewRandom(Desc{ID: 2, Rank: RankMeson, Dim: 48, Batch: 3}, rng)
	var ref *Tensor
	for _, env := range append([]string{"fma", "warp9", ""}, kernelTiers...) {
		withKernelEnv(t, env, func() {
			got, err := Contract(a, b, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = got
				return
			}
			equalBits(t, got, ref, "MICCO_KERNEL="+env)
		})
	}
}

// TestDispatchOverrideFlags: the resolved use* flags must equal hardware
// capability capped by the override, for every override value.
func TestDispatchOverrideFlags(t *testing.T) {
	caps := map[string]kernelTier{"scalar": tierScalar, "avx2": tierAVX2, "avx512": tierAVX512}
	for tier, cap := range caps {
		withKernelEnv(t, tier, func() {
			if kernelCap != cap {
				t.Errorf("MICCO_KERNEL=%s: kernelCap = %v, want %v", tier, kernelCap, cap)
			}
			if want := hwAVX2 && cap >= tierAVX2; useAVX2 != want {
				t.Errorf("MICCO_KERNEL=%s: useAVX2 = %v, want %v", tier, useAVX2, want)
			}
			if want := hwAVX512 && cap >= tierAVX512; useAVX512 != want {
				t.Errorf("MICCO_KERNEL=%s: useAVX512 = %v, want %v", tier, useAVX512, want)
			}
		})
	}
	// An unrecognized value — the removed "fma" included — must behave
	// like no override.
	for _, env := range []string{"warp9", "fma"} {
		withKernelEnv(t, env, func() {
			if kernelCap != tierAVX512 {
				t.Errorf("MICCO_KERNEL=%s: kernelCap = %v, want tierAVX512", env, kernelCap)
			}
		})
	}
}

// TestKernelInfo checks the human-readable dispatch summary under every
// MICCO_KERNEL value: the tier it names must be the kernel that actually
// runs — the AVX-512 block kernel when the cap allows it, the AVX2 row
// kernel under avx2, scalar under scalar — each degraded to what the
// hardware has. A value that is set but not recognised caps nothing and
// must be reported as ignored, never echoed as if it were in force.
func TestKernelInfo(t *testing.T) {
	if s := KernelInfo(); s == "" {
		t.Fatal("KernelInfo() empty")
	}
	caps := map[string]kernelTier{"scalar": tierScalar, "avx2": tierAVX2, "avx512": tierAVX512}
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
			if want := "exact: " + exact.String() + " (" + cpu.EnvKernel + "=" + env + ")"; !strings.HasSuffix(s, want) {
				t.Errorf("MICCO_KERNEL=%s: KernelInfo() = %q, want suffix %q", env, s, want)
			}
		})
	}
	auto := tierScalar
	switch {
	case hwAVX512:
		auto = tierAVX512
	case hwAVX2:
		auto = tierAVX2
	}
	for _, env := range []string{"fma", "avx-512", " Warp9 "} {
		withKernelEnv(t, env, func() {
			s := KernelInfo()
			want := "exact: " + auto.String() + " (" + cpu.EnvKernel + "=" + strings.TrimSpace(env) + " ignored)"
			if !strings.HasSuffix(s, want) {
				t.Errorf("MICCO_KERNEL=%q: KernelInfo() = %q, want suffix %q", env, s, want)
			}
		})
	}
	withKernelEnv(t, "", func() {
		if s := KernelInfo(); !strings.HasSuffix(s, "exact: "+auto.String()) {
			t.Errorf("MICCO_KERNEL empty: KernelInfo() = %q, want it to end at the tier", s)
		}
	})
}

// TestModeString pins the KernelMode names bench/ prints in its probe
// labels for as long as bench_shim.go exists.
func TestModeString(t *testing.T) {
	if ModeExact.String() != "exact" || ModeFast.String() != "fast" {
		t.Errorf("mode strings = %q/%q", ModeExact.String(), ModeFast.String())
	}
}
