// Package telemetry is segscale's unified instrumentation layer: a
// span-based tracer and a metrics registry shared by the simulated
// stack (perfsim/des, on virtual time) and the real training stack
// (train/horovod/collective/transport, on deterministic step-counter
// time), merged per rank at a Collector and exported as Chrome
// trace-event JSON (internal/timeline's format, so chrome://tracing
// and trace-stats consume it unchanged) and Prometheus text
// exposition.
//
// Horovod ships HOROVOD_TIMELINE because distributed-training tuning
// is evidence-driven — "you can't tune what you can't see" — and the
// paper's whole methodology is reading time breakdowns off such
// traces. This package gives every layer of segscale the same
// affordance behind one API.
//
// Everything is nil-safe: a nil *Probe, *Tracer, *Registry, *Counter,
// *Gauge, or *Histogram is a no-op, so uninstrumented call sites pay
// exactly one branch. No wall clock is ever read (the nowallclock
// seglint pass covers this package); time comes from an injected
// Clock.
package telemetry

import "sync/atomic"

// Clock supplies timestamps for spans. Implementations must be
// deterministic: the DES virtual clock for simulation, a monotonic
// operation counter for the real training path. Units are whatever
// the clock defines (virtual seconds, operation ticks); exporters
// carry them through unscaled.
type Clock interface {
	// Now returns the current time. Implementations may advance
	// their notion of time as a side effect (StepClock does), so two
	// consecutive calls need not return equal values.
	Now() float64
}

// ClockFunc adapts a plain function — typically a closure over
// des.Sim.Now — into a Clock.
type ClockFunc func() float64

// Now implements Clock.
func (f ClockFunc) Now() float64 { return f() }

// StepClock is a monotonic operation counter: every Now call
// atomically increments the counter and returns the new value. It
// gives the real training path — which must not consult the wall
// clock if results are to stay deterministic — a total order over
// instrumentation events. Durations measured against a StepClock are
// operation counts ("ops"), not seconds; metric names must say so
// (train_step_ops, not train_step_seconds).
//
// A StepClock is safe for concurrent use, but per-rank probes should
// own per-rank clocks so event ordering within a lane never depends
// on goroutine interleaving.
type StepClock struct {
	ticks atomic.Uint64
}

// NewStepClock returns a counter clock starting at zero.
func NewStepClock() *StepClock { return &StepClock{} }

// Now advances the counter by one tick and returns it.
func (c *StepClock) Now() float64 { return float64(c.ticks.Add(1)) }
