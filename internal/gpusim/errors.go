package gpusim

import "errors"

// Sentinel errors. The simulator (and the sched package, which aliases
// these) wraps them with %w so callers can branch with errors.Is instead
// of matching message strings.
var (
	// ErrNilArgument marks a nil workload, scheduler, cluster or tensor
	// argument to an entry point.
	ErrNilArgument = errors.New("nil argument")
	// ErrInvalidDevice marks a device index outside [0, NumDevices), or a
	// scheduler decision naming one.
	ErrInvalidDevice = errors.New("invalid device")
	// ErrOutOfMemory marks an allocation that cannot be satisfied even
	// after evicting every unpinned block: the tensor exceeds the pool, or
	// everything resident is pinned by the executing operation.
	ErrOutOfMemory = errors.New("out of device memory")
	// ErrDeviceLost marks an operation issued to a device removed by a
	// fault-injection plan (Cluster.FailDevice). Not retryable: recovery
	// must re-place the work on a surviving device.
	ErrDeviceLost = errors.New("device lost")
	// ErrTransientTransfer marks an operand fetch that failed transiently
	// (injected by Cluster.InjectTransientFailures). Retryable: the engine
	// retries under the fault plan's backoff policy, charging the backoff
	// to simulated time.
	ErrTransientTransfer = errors.New("transient transfer failure")
	// ErrTensorUnavailable marks a tensor resident on no device and absent
	// from the host: there is nothing to copy from. Seen when data was
	// never registered, or when a fault destroyed the only copy.
	ErrTensorUnavailable = errors.New("tensor unavailable")
	// ErrInvalidConfig marks a Config that fails Validate. The concrete
	// error is a *ConfigError naming the offending field.
	ErrInvalidConfig = errors.New("invalid config")
)

// ConfigError reports which Config field failed validation and why, so
// callers building topologies programmatically can branch on the field
// instead of parsing a message. It wraps ErrInvalidConfig for errors.Is.
type ConfigError struct {
	// Field is the Config field (or field group, e.g. "Bandwidth",
	// "Latency") that failed.
	Field string
	// Reason states the constraint that was violated.
	Reason string
}

func (e *ConfigError) Error() string {
	return "gpusim: invalid config: " + e.Field + ": " + e.Reason
}

func (e *ConfigError) Unwrap() error { return ErrInvalidConfig }
