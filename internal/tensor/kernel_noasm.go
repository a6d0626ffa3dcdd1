//go:build !amd64

package tensor

// Off amd64 no vector tier exists; dispatch.go then routes every
// contraction through the scalar kernels. The stubs below exist only to
// satisfy the linker — dispatch must never select them, and each panics
// with a clear message if a future refactor miswires the routing (a
// silent no-op would corrupt results instead of failing loudly).
var (
	hwAVX2   = false
	hwAVX512 = false
)

// rowKernelAVX2 is never called when hwAVX2 is false.
func rowKernelAVX2(cRe, cIm, aRe, aIm, bRe, bIm *float64, n int) {
	panic("tensor: AVX2 micro-kernel dispatched on a non-amd64 build (kernel routing bug)")
}

// blockKernelAVX512 is never called when hwAVX512 is false.
func blockKernelAVX512(cRe, cIm, aRe, aIm, bRe, bIm *float64, n int) {
	panic("tensor: AVX-512 block micro-kernel dispatched on a non-amd64 build (kernel routing bug)")
}
