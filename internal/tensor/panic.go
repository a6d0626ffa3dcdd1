package tensor

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// stackTrace captures the current goroutine's stack for WorkerPanicError.
func stackTrace() []byte { return debug.Stack() }

// ErrWorkerPanic marks a panic recovered inside a batch worker or the
// cooperative caller path of ContractBatch / BatchPipeline. Match it with
// errors.Is; the concrete *WorkerPanicError carries the worker index, the
// recovered value and the goroutine stack for post-mortem analysis.
var ErrWorkerPanic = errors.New("tensor: worker panic")

// WorkerPanicError is a contained worker panic: instead of killing the
// process, a panicking pool worker abandons the in-flight call's remaining
// items (its peers drain and park) and the Run or Do call returns this
// error. It unwraps to ErrWorkerPanic.
type WorkerPanicError struct {
	// Worker is the index of the panicking participant (0 is the caller).
	Worker int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte
}

// Error implements error. The stack is not inlined (it can be kilobytes);
// read it from the struct via errors.As.
func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("tensor: worker %d panicked: %v", e.Worker, e.Value)
}

// Unwrap makes errors.Is(err, ErrWorkerPanic) work.
func (e *WorkerPanicError) Unwrap() error { return ErrWorkerPanic }
