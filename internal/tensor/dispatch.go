package tensor

import (
	"os"
	"strings"

	"micco/internal/cpu"
)

// Kernel dispatch.
//
// There is one kernel family: every micro-kernel multiplies, adds and
// subtracts separately (never FMA), so each output element's chain rounds
// exactly like the scalar kernel's and results are bit-identical across
// worker counts, tiers and architectures. The only selection left is the
// one the code reads off the CPU — the widest instruction set the machine
// provides, capped by the MICCO_KERNEL override.

// kernelTier orders the instruction-set levels dispatch can choose from.
type kernelTier int

const (
	tierScalar kernelTier = iota
	tierAVX2
	tierAVX512
)

func (t kernelTier) String() string {
	switch t {
	case tierAVX2:
		return "avx2"
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
	useAVX2   bool       // 1x8 row kernel on YMM
	useAVX512 bool       // 4x16 block kernel on ZMM
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
	}
	useAVX2 = hwAVX2 && kernelCap >= tierAVX2
	useAVX512 = hwAVX512 && kernelCap >= tierAVX512
}

// KernelInfo describes the probed CPU features and the kernel tier
// dispatch resolved to, for surfacing in benchmarks and CLIs. A
// MICCO_KERNEL value that is set but not recognised caps nothing; it is
// reported as ignored so a typo cannot pass for a pinned tier.
func KernelInfo() string {
	exact := tierScalar
	if useAVX512 {
		exact = tierAVX512
	} else if useAVX2 {
		exact = tierAVX2
	}
	s := "cpu: " + cpu.X86.String() + "; exact: " + exact.String()
	if o := cpu.Override(); o != "" {
		s += " (" + cpu.EnvKernel + "=" + o + ")"
	} else if raw := strings.TrimSpace(os.Getenv(cpu.EnvKernel)); raw != "" {
		s += " (" + cpu.EnvKernel + "=" + raw + " ignored)"
	}
	return s
}
