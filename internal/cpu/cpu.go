// Package cpu centralizes x86 feature detection for the contraction
// kernels: which vector extensions the processor reports and whether the
// operating system preserves the corresponding register state across
// context switches. Detection runs once at package init; consumers read
// the X86 value and combine it with the MICCO_KERNEL override to pick a
// dispatch tier.
package cpu

import (
	"os"
	"strings"
)

// Features reports the vector capabilities relevant to the tensor
// kernels. Raw CPUID bits and OS state support are kept separate so the
// Has* helpers can insist on both: a CPU flag without the matching XCR0
// state bits means the OS will not preserve the wide registers and the
// kernel must not be dispatched.
type Features struct {
	// CPUID capability bits.
	AVX2     bool // leaf 7 EBX[5]
	FMA      bool // leaf 1 ECX[12] (FMA3)
	AVX512F  bool // leaf 7 EBX[16]
	AVX512DQ bool // leaf 7 EBX[17]
	AVX512VL bool // leaf 7 EBX[31]
	// OS state support (OSXSAVE plus XCR0 bits).
	OSYMM bool // XCR0 SSE+AVX state (bits 1-2)
	OSZMM bool // XCR0 opmask+ZMM state (bits 5-7)
}

// X86 holds the detected features of the running processor. On
// non-amd64 architectures every field is false.
var X86 = detect()

// HasAVX2 reports whether the AVX2 micro-kernels may be dispatched:
// the CPU supports AVX2 and the OS preserves YMM state.
func (f Features) HasAVX2() bool { return f.AVX2 && f.OSYMM }

// HasAVX512 reports whether the AVX-512 micro-kernels may be
// dispatched: the F+DQ+VL subset the kernels use, plus OS-preserved
// opmask/ZMM state.
func (f Features) HasAVX512() bool {
	return f.AVX512F && f.AVX512DQ && f.AVX512VL && f.OSZMM
}

// String renders the feature set as a space-separated flag list in the
// style of /proc/cpuinfo, e.g. "avx2 fma avx512f avx512dq avx512vl
// os-ymm os-zmm"; "none" when nothing is available.
func (f Features) String() string {
	var flags []string
	add := func(on bool, name string) {
		if on {
			flags = append(flags, name)
		}
	}
	add(f.AVX2, "avx2")
	add(f.FMA, "fma")
	add(f.AVX512F, "avx512f")
	add(f.AVX512DQ, "avx512dq")
	add(f.AVX512VL, "avx512vl")
	add(f.OSYMM, "os-ymm")
	add(f.OSZMM, "os-zmm")
	if len(flags) == 0 {
		return "none"
	}
	return strings.Join(flags, " ")
}

// EnvKernel is the environment knob that caps kernel dispatch for tests
// and CI: scalar, avx2, or avx512. The value names the highest
// tier dispatch may select; tiers the hardware lacks are skipped
// regardless.
const EnvKernel = "MICCO_KERNEL"

// Override returns the validated MICCO_KERNEL value ("" when unset or
// unrecognized, so a typo degrades to full auto-dispatch rather than
// silently forcing scalar).
func Override() string {
	switch v := strings.ToLower(strings.TrimSpace(os.Getenv(EnvKernel))); v {
	case "scalar", "avx2", "avx512":
		return v
	default:
		return ""
	}
}
