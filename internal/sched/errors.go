package sched

import (
	"errors"

	"micco/internal/gpusim"
)

// The engine shares the simulator's sentinel errors so errors.Is works
// regardless of which package name a caller imports them under.
var (
	// ErrNilArgument marks a nil workload, scheduler or cluster passed to
	// Run.
	ErrNilArgument = gpusim.ErrNilArgument
	// ErrInvalidDevice marks a scheduler that assigned a pair to a device
	// index outside the cluster.
	ErrInvalidDevice = gpusim.ErrInvalidDevice
	// ErrOutOfMemory marks a simulated allocation that cannot fit even
	// after evicting every unpinned block.
	ErrOutOfMemory = gpusim.ErrOutOfMemory
)

// ErrCheckpointMismatch marks a checkpoint that cannot seed the resumed
// run: it was taken on another workload, pair stream, device count or
// numeric seed.
var ErrCheckpointMismatch = errors.New("checkpoint does not match the run")

// ErrClusterLost is returned when a fault plan removes the last surviving
// device: no recovery is possible within the run. With Options.Checkpoint
// set, the partial Result accompanying the error carries the last
// stage-boundary checkpoint for Options.ResumeFrom.
var ErrClusterLost = errors.New("all devices lost")
