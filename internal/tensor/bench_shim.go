package tensor

// Shim for bench/, which may not be edited outside a [benchmark] PR and
// compiles against these names for its tensor.kernel_gflops_fast probe.
// There is one kernel family and nothing to select; the [benchmark]
// change that drops that probe deletes this file with it.

// KernelMode is accepted and ignored by ContractIntoMode.
//
// Deprecated: kept only because the ladder benchmark under bench/ names it,
// like sched.Options.NumericReclaim; the next change to bench/ deletes
// both.
type KernelMode int

const (
	ModeExact KernelMode = iota
	ModeFast
)

func (m KernelMode) String() string {
	if m == ModeFast {
		return "fast"
	}
	return "exact"
}

// ContractIntoMode is ContractInto; mode selects nothing.
func ContractIntoMode(dst *Tensor, a, b *Tensor, outID uint64, workers int, _ KernelMode) error {
	return ContractInto(dst, a, b, outID, workers)
}
