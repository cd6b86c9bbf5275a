package transport

import (
	"errors"
	"time"
)

// Sentinel errors for the failure modes a chaos-tested transport can
// surface. Callers match with errors.Is; every returned error carries
// rank/tag context on top of one of these.
var (
	// ErrRankFailed reports that some rank in the world died (via
	// Kill) and the world is draining: every subsequent blocking
	// operation on any rank fails fast with this error instead of
	// deadlocking against the dead rank.
	ErrRankFailed = errors.New("transport: rank failed")
	// ErrTimeout reports that a blocking Send/RecvReduce exceeded the
	// world's operation timeout (SetOpTimeout). Zero timeout — the
	// default — never produces it.
	ErrTimeout = errors.New("transport: operation timed out")
	// ErrDeliveryFailed reports that every delivery attempt of a
	// message was dropped by the fault injector — the bounded-retry
	// budget is exhausted, which is fatal to the sending rank.
	ErrDeliveryFailed = errors.New("transport: delivery failed after retries")
)

// Fault is the fate the injector assigns to one delivery attempt.
type Fault int

const (
	// FaultNone delivers the message normally.
	FaultNone Fault = iota
	// FaultDrop discards the attempt; the sender retries under its
	// RetryPolicy, as a reliable protocol over a lossy link would.
	FaultDrop
	// FaultDuplicate delivers the message twice with the same sequence
	// number; the receiver deduplicates.
	FaultDuplicate
	// FaultDelay holds the message back: it becomes visible only when
	// the next message on the same (src,dst) pair arrives, or when the
	// receiver runs out of visible messages — reordering that the
	// sequence-numbered receive path must absorb.
	FaultDelay
)

// String names the fault for logs and test failures.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultDrop:
		return "drop"
	case FaultDuplicate:
		return "duplicate"
	case FaultDelay:
		return "delay"
	}
	return "unknown"
}

// Injector decides, deterministically, the fate of each delivery
// attempt. It is consulted under no lock and from every sending
// goroutine concurrently, so implementations must be stateless or
// internally synchronised — internal/faultinject's Plan hashes
// (seed, src, dst, tag, attempt, seq) and is pure.
type Injector interface {
	// Message is called once per delivery attempt of the message from
	// src to dst with the given tag. attempt counts retries (0 is the
	// first try) and seq is the per-(src,dst)-pair sequence number.
	Message(src, dst, tag, attempt int, seq uint64) Fault
}

// RetryPolicy bounds redelivery of dropped messages.
type RetryPolicy struct {
	// MaxAttempts is the total number of delivery attempts per message
	// (first try included). Exhausting it fails the send with
	// ErrDeliveryFailed and kills the sending rank.
	MaxAttempts int
	// Backoff is slept between attempts (0 = immediate retry, the
	// in-process default: there is no congested wire to yield to).
	Backoff time.Duration
}

// DefaultRetry is the policy a world starts with.
var DefaultRetry = RetryPolicy{MaxAttempts: 5, Backoff: 0}

// SetInjector installs a fault injector (nil removes it). Call before
// any traffic; the world does not synchronise injector swaps against
// in-flight sends.
func (w *World) SetInjector(inj Injector) { w.inj = inj }

// SetRetryPolicy replaces the retry bounds consulted when the
// injector drops a delivery. Call before any traffic.
func (w *World) SetRetryPolicy(p RetryPolicy) {
	if p.MaxAttempts > 0 {
		w.retry = p
	}
}

// SetOpTimeout bounds every blocking Send/RecvReduce/Barrier wait; zero
// (the default) blocks forever. Chaos runs set it so a crashed or
// wedged peer surfaces as ErrTimeout instead of a deadlock; healthy
// runs never hit it, which keeps results timeout-independent.
func (w *World) SetOpTimeout(d time.Duration) { w.opTimeout = d }
