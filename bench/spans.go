package main

import (
	"fmt"
	"os"
	"time"

	"segscale/internal/timeline"
)

// span is one traced interval, recorded by the harness around a call
// into a layer's public function. Parent indexes the span that caused
// it within the same lane's log (-1 for a root); spans of one training
// step or sweep share Step.
type span struct {
	Lane    string `json:"lane"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Step    int    `json:"step"`
}

func (s span) durMS() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// spanLog is one lane's in-memory span list. One goroutine owns a log,
// so begin/end take no lock; a nil log records nothing, which is how
// the untraced run shares code with the traced one.
type spanLog struct {
	lane  string
	epoch time.Time
	step  int
	spans []span
}

func newSpanLog(lane string, epoch time.Time) *spanLog {
	// Room for a whole traced run (six rounds of sixteen ~50-span steps),
	// so the log does not grow inside a timed step.
	return &spanLog{lane: lane, epoch: epoch, spans: make([]span, 0, 1<<13)}
}

// begin opens a span under parent and returns its index.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Lane: l.lane, Name: name, Parent: parent, Step: l.step,
		StartNS: int64(time.Since(l.epoch))})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil {
		return
	}
	l.spans[i].EndNS = int64(time.Since(l.epoch))
}

// selfMS returns each span's duration minus the part its direct
// children cover. Children of one parent never overlap here (each lane
// is one goroutine), so the covered part is the sum of their durations.
func selfMS(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.durMS()
		if s.Parent >= 0 {
			self[s.Parent] -= s.durMS()
		}
	}
	return self
}

// perStepMS sums, per step, the self time (or, with total, the whole
// duration) of the spans called name, and returns one value per step
// that has such a span.
func perStepMS(spans []span, name string, total bool) []float64 {
	var self []float64
	if !total {
		self = selfMS(spans)
	}
	sums := map[int]float64{}
	var order []int
	for i, s := range spans {
		if s.Name != name {
			continue
		}
		if _, seen := sums[s.Step]; !seen {
			order = append(order, s.Step)
		}
		if total {
			sums[s.Step] += s.durMS()
		} else {
			sums[s.Step] += self[i]
		}
	}
	out := make([]float64, 0, len(order))
	for _, st := range order {
		out = append(out, sums[st])
	}
	return out
}

// phaseOf maps a span name to the Horovod timeline phase trace-stats
// groups by.
func phaseOf(name string) string {
	switch name {
	case "train.step", "train.epoch_tail", "sim.sweep":
		return timeline.PhaseStep
	case "deeplab.forward", "tensor.loss", "deeplab.predict":
		return timeline.PhaseForward
	case "deeplab.backward":
		return timeline.PhaseBackward
	case "horovod.allreduce_grads", "horovod.syncbn", "horovod.metrics":
		return timeline.PhaseAllreduce
	case "horovod.bcast_params":
		return timeline.PhaseBcast
	case "transport.barrier":
		return timeline.PhaseBarrier
	case "segdata.batch":
		return timeline.PhaseWait
	}
	return timeline.PhaseMemcpy
}

// writeChromeTrace writes every workload's spans to path as one Chrome
// trace through internal/timeline, lanes prefixed by workload, so
// cmd/trace-stats opens it unmodified.
func writeChromeTrace(path string, results []*result) error {
	rec := timeline.New()
	for _, r := range results {
		for _, s := range r.Spans {
			rec.Add(r.Workload+"/"+s.Lane, phaseOf(s.Name), fmt.Sprintf("%s#%d", s.Name, s.Step),
				float64(s.StartNS)/1e9, float64(s.EndNS)/1e9)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
