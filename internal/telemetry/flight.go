package telemetry

import (
	"io"
	"sync"

	"segscale/internal/timeline"
)

// FlightRecorder is a bounded ring buffer of the most recent telemetry
// events — the always-on "black box" that can be dumped as a Chrome
// trace at any moment (on demand over HTTP, on SIGQUIT, or when crash
// recovery trips) without waiting for the run to finish. Once attached
// to a Collector via EnableFlight, every span ended and every Mark
// recorded through that collector's probes also lands here; when the
// ring wraps, the oldest events are overwritten, so a dump always
// shows the last Cap() events leading up to the moment of the dump.
// Each entry is a finished span or an instantaneous mark (Start ==
// End) in the owning clock's units, its message edge kept, so a dump
// keeps the causal structure trace analysis needs.
//
// The ring holds event *values* under one short-lived mutex per
// record; the critical section is a copy of five words plus an index
// bump, so writers on different rank goroutines contend only for
// nanoseconds. A nil *FlightRecorder is a valid no-op.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []timeline.Event
	next  int
	n     int
	total uint64
}

// DefaultFlightCapacity is the ring size EnableFlight uses when the
// caller passes a non-positive capacity.
const DefaultFlightCapacity = 4096

// NewFlightRecorder returns a recorder keeping the last capacity
// events (DefaultFlightCapacity if capacity <= 0).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{buf: make([]timeline.Event, capacity)}
}

// Record appends an event, overwriting the oldest once the ring is
// full. Events with End < Start are clamped to zero duration so a
// dump can never produce a trace chrome://tracing rejects. Nil-safe.
func (f *FlightRecorder) Record(ev timeline.Event) {
	if f == nil {
		return
	}
	if ev.End < ev.Start {
		ev.End = ev.Start
	}
	f.mu.Lock()
	f.buf[f.next] = ev
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
	}
	if f.n < len(f.buf) {
		f.n++
	}
	f.total++
	f.mu.Unlock()
}

// Snapshot returns the retained events oldest-first.
func (f *FlightRecorder) Snapshot() []timeline.Event {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]timeline.Event, 0, f.n)
	start := f.next - f.n
	if start < 0 {
		start += len(f.buf)
	}
	for i := 0; i < f.n; i++ {
		out = append(out, f.buf[(start+i)%len(f.buf)])
	}
	return out
}

// Len returns how many events the ring currently retains.
func (f *FlightRecorder) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

// Cap returns the ring capacity (0 for nil).
func (f *FlightRecorder) Cap() int {
	if f == nil {
		return 0
	}
	return len(f.buf)
}

// Total returns how many events were ever recorded, including those
// the ring has since overwritten.
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// WriteChromeTrace dumps the retained window in Chrome trace-event
// format — the same format the post-hoc exporters use, so
// chrome://tracing and trace-stats consume a flight dump unchanged.
func (f *FlightRecorder) WriteChromeTrace(w io.Writer) error {
	return (&timeline.Recorder{Events: f.Snapshot()}).WriteChromeTrace(w)
}

// StepObserver receives a notification after each completed training
// step — the feed of the periodic metrics flusher and of step logs.
// lane names the rank ("rank0"), step is the global step index, imgs
// the images the step processed on that lane, and stepSec the step's
// duration when the producer knows it. The trainer passes 0 — it
// deliberately never reads a clock — leaving wall timing to the
// observer. Implementations must be safe for concurrent use from many
// rank goroutines and must not influence the run they observe.
type StepObserver interface {
	ObserveStep(lane string, step, imgs int, stepSec float64)
}

// MultiObserver fans ObserveStep out to several observers, skipping
// nils. It returns nil when no non-nil observer remains, so callers
// can assign the result to a config field unconditionally.
func MultiObserver(obs ...StepObserver) StepObserver {
	live := make(multiObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	if len(live) == 0 {
		return nil
	}
	return live
}

type multiObserver []StepObserver

func (m multiObserver) ObserveStep(lane string, step, imgs int, stepSec float64) {
	for _, o := range m {
		o.ObserveStep(lane, step, imgs, stepSec)
	}
}
