package transport

import "testing"

// recycleRound sends two messages on the 0→1 pair before receiving
// either, so two payloads are in flight at once, then consumes both
// with RecvReduce and checks every element. Lengths vary with i so the
// free list has to pick among buffers of different capacities.
func recycleRound[T Elem](t *testing.T, w *World, i int) {
	t.Helper()
	c0, c1 := w.Comm(0), w.Comm(1)
	const tagA, tagB = 1, 2
	var sent [2][]T
	for k, tag := range []int{tagA, tagB} {
		n := 1 + (i+k)%5
		sent[k] = make([]T, n)
		for j := range sent[k] {
			sent[k][j] = T(100*i + 10*k + j)
		}
		must(t, Send(c0, 1, tag, sent[k]))
	}
	for k, tag := range []int{tagA, tagB} {
		got := make([]T, len(sent[k]))
		must(t, RecvReduce(c1, 0, tag, got, nil))
		for j := range got {
			if got[j] != sent[k][j] {
				t.Fatalf("round %d tag %d: got %v, sent %v", i, tag, got, sent[k])
			}
		}
	}
}

// TestRecycledPayloadsUnderFaults runs a duplicate-every-message and a
// delay-every-message world on both wires. Every receive must read the
// bytes that were sent although later sends reuse the consumed
// buffers: a duplicated payload recycled twice would be handed to two
// in-flight sends at once. Once the free list is warm, a send and its
// consuming receive allocate nothing, and the list stays as short as
// the pair's traffic in flight.
func TestRecycledPayloadsUnderFaults(t *testing.T) {
	for _, fault := range []Fault{FaultDuplicate, FaultDelay} {
		t.Run(fault.String(), func(t *testing.T) {
			w := mustWorld(t, 2)
			w.SetInjector(injectorFunc(func(src, dst, tag, attempt int, seq uint64) Fault { return fault }))
			for i := 0; i < 20; i++ {
				recycleRound[float32](t, w, i)
				recycleRound[uint16](t, w, i)
			}
			c0, c1 := w.Comm(0), w.Comm(1)
			out, in := []float32{1, 2, 3, 4, 5}, make([]float32, 5)
			if allocs := testing.AllocsPerRun(50, func() {
				must(t, c0.Send(1, 9, out))
				must(t, c1.RecvInto(0, 9, in))
			}); allocs != 0 {
				t.Errorf("warm send + RecvReduce allocates %.0f times", allocs)
			}
			mb := w.boxes[1][0]
			if len(mb.free32) > 2 || len(mb.free16) > 2 {
				t.Errorf("free lists hold %d float32 and %d binary16 buffers; two are ever in flight",
					len(mb.free32), len(mb.free16))
			}
		})
	}
}
