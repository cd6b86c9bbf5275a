// Package horovod reimplements the pieces of Horovod's runtime that
// the paper tunes: the knob set (fusion threshold, cycle time,
// hierarchical allreduce), the tensor-fusion planner, and a real
// data-carrying runtime that fuses gradient tensors and allreduces
// them over internal/collective — the code path the distributed
// training accuracy experiment exercises. The time-domain behaviour
// of the same machinery (negotiation cycles, fusion-buffer memcpy,
// overlap) is simulated by internal/perfsim using this package's
// planner.
package horovod

import (
	"fmt"
	"time"

	"segscale/internal/netmodel"
)

// Config is the Horovod knob set, named after the real environment
// variables. internal/core/knobs.go parses and renders them.
type Config struct {
	// FusionThreshold (HOROVOD_FUSION_THRESHOLD) caps the fused
	// buffer size in bytes. 0 disables fusion (per-tensor allreduce).
	FusionThreshold int
	// CycleTime (HOROVOD_CYCLE_TIME) is the background-loop period.
	// Only perfsim reads it: the real Runtime has no background loop,
	// and train.Config rejects a non-default value.
	CycleTime time.Duration
	// Hierarchical (HOROVOD_HIERARCHICAL_ALLREDUCE) switches to the
	// node-leader hierarchy.
	Hierarchical bool
	// Algorithm picks the allreduce shape the MPI layer uses for
	// fused buffers. AlgAuto defers to the library's size-based
	// choice; Hierarchical overrides it with the leader hierarchy.
	Algorithm netmodel.Algorithm
	// ResponseCache (HOROVOD_CACHE_CAPACITY > 0) skips re-negotiating
	// tensors seen in earlier steps, shrinking coordinator work. Only
	// perfsim reads it: the real Runtime never negotiates, and
	// train.Config rejects it.
	ResponseCache bool
	// FP16Compression mirrors hvd.Compression.fp16 passed to the
	// DistributedOptimizer: gradients are cast to binary16 before the
	// allreduce, halving wire volume at a precision cost. (A Python
	// argument in real Horovod, not an environment variable, so the
	// knob table, internal/core/knobs.go, has no row for it.)
	FP16Compression bool
	// BackwardPassesPerStep mirrors hvd.DistributedOptimizer's
	// backward_passes_per_step: gradients from this many backward
	// passes accumulate locally before one allreduce, trading
	// communication frequency for effective batch size. 0/1 means
	// every pass communicates.
	BackwardPassesPerStep int
}

// Default returns Horovod 0.16-era defaults: 64 MiB fusion buffer,
// 5 ms cycle, flat (non-hierarchical) allreduce, no response cache.
func Default() Config {
	return Config{
		FusionThreshold: 64 << 20,
		CycleTime:       5 * time.Millisecond,
		Hierarchical:    false,
		Algorithm:       netmodel.AlgAuto,
		ResponseCache:   false,
	}
}

// Validate checks the knobs.
func (c Config) Validate() error {
	if c.FusionThreshold < 0 {
		return fmt.Errorf("horovod: negative fusion threshold %d", c.FusionThreshold)
	}
	if c.CycleTime <= 0 {
		return fmt.Errorf("horovod: non-positive cycle time %v", c.CycleTime)
	}
	if c.BackwardPassesPerStep < 0 {
		return fmt.Errorf("horovod: negative backward passes per step")
	}
	return nil
}

// AccumPasses returns the effective accumulation count (≥1).
func (c Config) AccumPasses() int {
	if c.BackwardPassesPerStep <= 1 {
		return 1
	}
	return c.BackwardPassesPerStep
}

// ResolveAlgorithm returns the collective shape fused buffers use.
func (c Config) ResolveAlgorithm() netmodel.Algorithm {
	if c.Hierarchical {
		return netmodel.AlgHierLeader
	}
	return c.Algorithm
}
