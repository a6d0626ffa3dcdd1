package tensor

import "micco/internal/cpu"

// Kernel dispatch.
//
// Two orthogonal axes select the micro-kernel that executes a group
// product. The KernelMode is the caller's accuracy contract: Exact
// reproduces the scalar kernel's arithmetic bit for bit on every tier
// (non-FMA vector kernels on AVX2 and AVX-512), Fast permits
// fused multiply-add tiers that round once per multiply-add and stay
// within the ULP bound documented in DESIGN.md §12. The kernel tier is
// what the machine (and the MICCO_KERNEL override) allows: the highest
// usable instruction set. Dispatch takes the minimum of contract and
// capability — Fast mode on a machine without FMA silently runs the
// exact path, which trivially satisfies the bound.

// KernelMode selects the accuracy contract for a contraction.
type KernelMode int

const (
	// ModeExact is the default: results are bit-identical across worker
	// counts, dispatch tiers, and architectures. Its vector kernels (the
	// AVX-512 4x16 block kernel, the AVX2 1x8 row kernel) multiply, add
	// and subtract separately — never FMA.
	ModeExact KernelMode = iota
	// ModeFast permits FMA3/AVX-512 fused kernels. Results are
	// deterministic for a fixed machine and override setting, but differ
	// from ModeExact within a documented ULP bound.
	ModeFast
)

func (m KernelMode) String() string {
	if m == ModeFast {
		return "fast"
	}
	return "exact"
}

// kernelTier orders the instruction-set levels dispatch can choose from.
type kernelTier int

const (
	tierScalar kernelTier = iota
	tierAVX2
	tierFMA
	tierAVX512
)

func (t kernelTier) String() string {
	switch t {
	case tierAVX2:
		return "avx2"
	case tierFMA:
		return "fma"
	case tierAVX512:
		return "avx512"
	default:
		return "scalar"
	}
}

// The resolved dispatch state: hardware capability capped by the
// MICCO_KERNEL override. Written once by resolveDispatch at init (and by
// tests that re-resolve under a modified environment); read on every
// contraction.
var (
	kernelCap kernelTier // upper bound from MICCO_KERNEL, tierAVX512 if unset
	useAVX2   bool       // exact tier: 1x8 row kernel on YMM
	useFMA    bool       // fast tier: FMA3 on YMM
	useAVX512 bool       // exact tier: 4x16 block kernel; fast tier: FMA on ZMM
)

func init() { resolveDispatch() }

// resolveDispatch recomputes the use* flags from the probed hardware
// features and the MICCO_KERNEL environment cap. It is called once at
// init; tests call it again under t.Setenv to exercise every tier on one
// machine.
func resolveDispatch() {
	kernelCap = tierAVX512
	switch cpu.Override() {
	case "scalar":
		kernelCap = tierScalar
	case "avx2":
		kernelCap = tierAVX2
	case "fma":
		kernelCap = tierFMA
	case "avx512":
		kernelCap = tierAVX512
	}
	useAVX2 = hwAVX2 && kernelCap >= tierAVX2
	useFMA = hwFMA && kernelCap >= tierFMA
	useAVX512 = hwAVX512 && kernelCap >= tierAVX512
}

// fastTierFor picks the vector tier ModeFast uses for an n x n group, or
// tierScalar when no fused kernel applies — in which case the caller runs
// the exact path. AVX-512 needs a full 16-column tile to beat the YMM
// kernel; FMA needs 8.
func fastTierFor(n int) kernelTier {
	if useAVX512 && n >= 16 {
		return tierAVX512
	}
	if useFMA && n >= 8 {
		return tierFMA
	}
	return tierScalar
}

// KernelInfo describes the probed CPU features and the kernel tier each
// mode resolves to, for surfacing in benchmarks and CLIs.
func KernelInfo() string {
	exact := tierScalar
	if useAVX512 {
		exact = tierAVX512
	} else if useAVX2 {
		exact = tierAVX2
	}
	fast := fastTierFor(1 << 30)
	if fast == tierScalar {
		fast = exact
	}
	s := "cpu: " + cpu.X86.String() + "; exact: " + exact.String() + "; fast: " + fast.String()
	if o := cpu.Override(); o != "" {
		s += " (" + cpu.EnvKernel + "=" + o + ")"
	}
	return s
}
