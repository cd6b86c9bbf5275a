package transport

import (
	"errors"
	"fmt"
	"testing"

	"segscale/internal/telemetry"
)

// counterValue returns one lane's contribution to a gathered counter.
func counterValue(t *testing.T, col *telemetry.Collector, lane, name string) float64 {
	t.Helper()
	for _, m := range col.Gather() {
		if m.Name == name {
			return m.PerLane[lane]
		}
	}
	t.Fatalf("metric %s not gathered", name)
	return 0
}

// The binary16 path must carry payloads with the same FIFO semantics
// as the float32 path, and both kinds must interleave safely on one
// (src,dst) pair when their tags differ.
func TestSendRecv16Basic(t *testing.T) {
	err := runWorld(2, func(c *Comm) error {
		const tag16, tag32 = 7, 8
		if c.Rank() == 0 {
			if err := Send(c, 1, tag16, []uint16{0x3C00, 0x4000, 0xFC00}); err != nil {
				return err
			}
			return c.Send(1, tag32, []float32{1, 2})
		}
		got16 := make([]uint16, 3)
		if err := RecvReduce(c, 0, tag16, got16, nil); err != nil {
			return err
		}
		if got16[0] != 0x3C00 || got16[1] != 0x4000 || got16[2] != 0xFC00 {
			t.Errorf("binary16 payload corrupted: %#v", got16)
		}
		got32 := make([]float32, 2)
		if err := RecvReduce(c, 0, tag32, got32, nil); err != nil {
			return err
		}
		if got32[0] != 1 || got32[1] != 2 {
			t.Errorf("float32 payload corrupted: %#v", got32)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecv16RingStep(t *testing.T) {
	const world = 4
	err := runWorld(world, func(c *Comm) error {
		me := c.Rank()
		next := (me + 1) % world
		prev := (me - 1 + world) % world
		if err := Send(c, next, 3, []uint16{uint16(me)}); err != nil {
			return err
		}
		got := []uint16{0xFFFF}
		if err := RecvReduce(c, prev, 3, got, nil); err != nil {
			return err
		}
		if got[0] != uint16(prev) {
			t.Errorf("rank %d: got %#v, want [%d]", me, got, prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A consuming receive into a buffer of the wrong length fails with the
// pair, the tag and both lengths. With a reducer, the reducer checks
// lengths itself and its error comes back unchanged.
func TestRecvInto16LengthMismatch(t *testing.T) {
	w := mustWorld(t, 2)
	c0, c1 := w.Comm(0), w.Comm(1)
	must(t, Send(c0, 1, 1, []uint16{1, 2, 3}))
	must(t, Send(c0, 1, 2, []uint16{1}))
	refused := errors.New("reducer refused")
	refuse := func(dst, src []uint16) error { return refused }
	wantError(t, RecvReduce(c1, 0, 1, make([]uint16, 2), nil), "transport: recv 1←0 tag 1: length 3 into buffer 2")
	wantError(t, RecvReduce(c1, 0, 2, make([]uint16, 1), refuse), refused.Error())
}

// A float32 message consumed by a binary16 receive (and vice versa)
// is a protocol bug, reported as an error rather than silently
// reinterpreted.
func TestPayloadKindMismatch(t *testing.T) {
	w := mustWorld(t, 2)
	c0, c1 := w.Comm(0), w.Comm(1)
	must(t, c0.Send(1, 1, []float32{1}))
	must(t, Send(c0, 1, 2, []uint16{1}))
	wantError(t, RecvReduce(c1, 0, 1, make([]uint16, 1), nil), "transport: recv 1←0 tag 1: float32 payload on a binary16 receive")
	wantError(t, RecvReduce(c1, 0, 2, make([]float32, 1), nil), "transport: recv 1←0 tag 2: binary16 payload on a float32 receive")
}

// wantError checks that err is an error with exactly the text want.
func wantError(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}

// The byte counters must model the 2-byte element width: n binary16
// words account exactly half the bytes of n float32 elements.
func TestSend16ByteAccounting(t *testing.T) {
	const n = 64
	col := telemetry.NewCollector()
	err := runWorld(2, func(c *Comm) error {
		c.SetProbe(col.NewProbe(fmt.Sprintf("rank%d", c.Rank()), telemetry.NewStepClock()))
		if c.Rank() == 0 {
			if err := c.Send(1, 1, make([]float32, n)); err != nil {
				return err
			}
			return Send(c, 1, 2, make([]uint16, n))
		}
		if err := c.RecvInto(0, 1, make([]float32, n)); err != nil {
			return err
		}
		return RecvReduce(c, 0, 2, make([]uint16, n), nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	sent := counterValue(t, col, "rank0", "transport_sent_bytes")
	recvd := counterValue(t, col, "rank1", "transport_received_bytes")
	want := float64(4*n + 2*n)
	if sent != want || recvd != want {
		t.Fatalf("sent %.0f recv %.0f bytes, want %.0f (4n float32 + 2n binary16)", sent, recvd, want)
	}
}
