// Package des implements a small discrete-event simulation engine.
//
// The engine drives the performance side of segscale: every simulated
// GPU rank, the Horovod coordinator, and the network links are modelled
// as processes that schedule events on a shared virtual clock. Virtual
// time is kept in float64 seconds; nothing in the engine sleeps or
// consults the wall clock, so simulating 132 ranks for hundreds of
// steps completes in milliseconds.
//
// The engine is deliberately sequential (a single event loop); the
// parallelism being studied is *inside* the simulated system, not in
// the simulator. This keeps results deterministic for a given seed.
package des

import (
	"container/heap"
	"fmt"
	"math"

	"segscale/internal/telemetry"
)

// Event is a scheduled callback in virtual time.
type Event struct {
	Time float64 // virtual seconds
	Fn   func()

	// seq breaks ties so same-time events run in schedule order,
	// which keeps the simulation deterministic.
	seq   uint64
	index int // heap index; -1 once popped or cancelled
}

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.index == -2 }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].Time != q[j].Time {
		return q[i].Time < q[j].Time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Sim is a discrete-event simulator instance.
type Sim struct {
	now     float64
	queue   eventQueue
	nextSeq uint64
	steps   uint64
	// MaxEvents bounds the event count as a runaway-loop guard;
	// zero means no bound.
	MaxEvents uint64

	// Cached telemetry instruments, nil until SetProbe; the nil-safe
	// no-op methods keep the uninstrumented event loop at one branch
	// per instrument.
	eventsCtr *telemetry.Counter
	depth     *telemetry.Gauge
}

// SetProbe attaches telemetry to the event loop: an executed-event
// counter and a queue-depth gauge, the two signals that expose a
// runaway or starved simulation. A nil probe detaches.
func (s *Sim) SetProbe(p *telemetry.Probe) {
	s.eventsCtr = p.Counter("des_events_total")
	s.depth = p.Gauge("des_queue_depth_events")
}

// New returns an empty simulator with the clock at zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Events returns how many events have been executed so far.
func (s *Sim) Events() uint64 { return s.steps }

// At schedules fn at absolute virtual time t. Scheduling in the past
// panics: it always indicates a modelling bug.
func (s *Sim) At(t float64, fn func()) *Event {
	if t < s.now {
		//seglint:ignore nopanic scheduling in the past is a modelling bug; callers cannot recover mid-simulation
		panic(fmt.Sprintf("des: schedule at %.9fs before now %.9fs", t, s.now))
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		//seglint:ignore nopanic a non-finite timestamp corrupts the event heap; fail loudly at the source
		panic(fmt.Sprintf("des: schedule at non-finite time %v", t))
	}
	e := &Event{Time: t, Fn: fn, seq: s.nextSeq}
	s.nextSeq++
	heap.Push(&s.queue, e)
	return e
}

// After schedules fn d seconds from now. Negative delays panic.
func (s *Sim) After(d float64, fn func()) *Event {
	if d < 0 {
		//seglint:ignore nopanic negative delay is a modelling bug, same contract as At
		panic(fmt.Sprintf("des: negative delay %.9fs", d))
	}
	return s.At(s.now+d, fn)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Sim) Cancel(e *Event) {
	if e == nil || e.index < 0 {
		return
	}
	heap.Remove(&s.queue, e.index)
	e.index = -2
}

// Run executes events until the queue drains. It returns the final
// virtual time.
func (s *Sim) Run() float64 {
	return s.RunUntil(math.Inf(1))
}

// RunUntil executes events with Time <= deadline and returns the
// virtual time of the last executed event (or the unchanged clock if
// nothing ran). The clock never exceeds deadline.
func (s *Sim) RunUntil(deadline float64) float64 {
	for len(s.queue) > 0 {
		if s.queue[0].Time > deadline {
			break
		}
		e := heap.Pop(&s.queue).(*Event)
		s.now = e.Time
		s.steps++
		s.eventsCtr.Inc()
		s.depth.Set(float64(len(s.queue)))
		if s.MaxEvents > 0 && s.steps > s.MaxEvents {
			//seglint:ignore nopanic the runaway guard fires inside event callbacks, which have no error channel
			panic(fmt.Sprintf("des: exceeded MaxEvents=%d (runaway simulation?)", s.MaxEvents))
		}
		e.Fn()
	}
	return s.now
}

// Pending returns the number of not-yet-fired events.
func (s *Sim) Pending() int { return len(s.queue) }

// PeekTime returns the virtual time of the next event, or +Inf when
// the queue is empty.
func (s *Sim) PeekTime() float64 {
	if len(s.queue) == 0 {
		return math.Inf(1)
	}
	return s.queue[0].Time
}
