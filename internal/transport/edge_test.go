package transport

import (
	"testing"

	"segscale/internal/telemetry"
	"segscale/internal/timeline"
)

// edgeSpans filters a probe's recorded spans down to those of one
// phase.
func edgeSpans(p *telemetry.Probe, phase string) []timeline.Event {
	var out []timeline.Event
	for _, s := range p.Tracer().Spans() {
		if s.Phase == phase {
			out = append(out, s)
		}
	}
	return out
}

// TestSendRecvEdgePairing checks the tentpole invariant of message
// tracing: the send span on the source rank and the recv span on the
// destination rank carry the identical edge ID, and the ID encodes
// (src, dst, seq, incarnation).
func TestSendRecvEdgePairing(t *testing.T) {
	w := mustWorld(t, 2)
	w.SetIncarnation(3)
	p0 := telemetry.NewProbe("rank0", telemetry.NewStepClock())
	p1 := telemetry.NewProbe("rank1", telemetry.NewStepClock())
	c0, c1 := w.Comm(0), w.Comm(1)
	c0.SetProbe(p0)
	c1.SetProbe(p1)

	for i := 0; i < 3; i++ {
		if err := c0.Send(1, 7, []float32{float32(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		recvOK(t, c1, 0, 7)
	}

	sends := edgeSpans(p0, timeline.PhaseSend)
	recvs := edgeSpans(p1, timeline.PhaseRecv)
	if len(sends) != 3 || len(recvs) != 3 {
		t.Fatalf("got %d send spans, %d recv spans, want 3 each", len(sends), len(recvs))
	}
	for i := 0; i < 3; i++ {
		if sends[i].Edge != recvs[i].Edge {
			t.Errorf("message %d: send edge %q != recv edge %q", i, sends[i].Edge, recvs[i].Edge)
		}
		e, err := timeline.ParseEdge(sends[i].Edge)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		want := timeline.Edge{Src: 0, Dst: 1, Seq: uint64(i), Inc: 3}
		if e != want {
			t.Errorf("message %d: edge %+v, want %+v", i, e, want)
		}
	}
}

// TestUninstrumentedSendRecvNoSpans confirms the probe-less path stays
// span-free (and alive): edge stamping must cost nothing when off.
func TestUninstrumentedSendRecvNoSpans(t *testing.T) {
	w := mustWorld(t, 2)
	if err := w.Comm(0).Send(1, 0, []float32{1}); err != nil {
		t.Fatalf("send: %v", err)
	}
	recvOK(t, w.Comm(1), 0, 0)
}
