package transport

import (
	"errors"
	"sync"
	"testing"
)

// runWorld runs fn on every rank of a fresh n-rank world.
func runWorld(n int, fn func(c *Comm) error) error {
	w, err := NewWorld(n)
	if err != nil {
		return err
	}
	return w.Run(fn)
}

// mustWorld builds a world or fails the test.
func mustWorld(t *testing.T, n int) *World {
	t.Helper()
	w, err := NewWorld(n)
	if err != nil {
		t.Fatalf("NewWorld(%d): %v", n, err)
	}
	return w
}

func TestSendRecvBasic(t *testing.T) {
	w := mustWorld(t, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := w.Comm(0)
		if err := c.Send(1, 7, []float32{1, 2, 3}); err != nil {
			t.Errorf("send: %v", err)
		}
	}()
	var got []float32
	go func() {
		defer wg.Done()
		got = make([]float32, 3)
		if err := w.Comm(1).RecvInto(0, 7, got); err != nil {
			t.Errorf("recv: %v", err)
		}
	}()
	wg.Wait()
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := mustWorld(t, 2)
	src := []float32{1, 2, 3}
	done := make(chan []float32)
	go func() {
		got := make([]float32, 3)
		if err := w.Comm(1).RecvInto(0, 0, got); err != nil {
			t.Errorf("recv: %v", err)
		}
		done <- got
	}()
	if err := w.Comm(0).Send(1, 0, src); err != nil {
		t.Fatalf("send: %v", err)
	}
	src[0] = 99 // mutate after send; receiver must see the original
	got := <-done
	if got[0] != 1 {
		t.Fatalf("send aliased caller buffer: got %v", got)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	w := mustWorld(t, 2)
	c0, c1 := w.Comm(0), w.Comm(1)
	must(t, c0.Send(1, 1, []float32{1}))
	must(t, c0.Send(1, 2, []float32{2}))
	// Receive tag 2 first: tag-1 message must stay queued.
	if got := recvOK(t, c1, 0, 2); got[0] != 2 {
		t.Fatalf("tag 2 recv got %v", got)
	}
	if got := recvOK(t, c1, 0, 1); got[0] != 1 {
		t.Fatalf("tag 1 recv got %v", got)
	}
}

// must fails the test on a transport error.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("transport op: %v", err)
	}
}

// recvOK receives a one-element float32 message or fails the test.
func recvOK(t *testing.T, c *Comm, src, tag int) []float32 {
	t.Helper()
	got := make([]float32, 1)
	if err := c.RecvInto(src, tag, got); err != nil {
		t.Fatalf("recv %d←%d tag %d: %v", c.Rank(), src, tag, err)
	}
	return got
}

func TestPendingPreservesFIFOWithinTag(t *testing.T) {
	w := mustWorld(t, 2)
	c0, c1 := w.Comm(0), w.Comm(1)
	must(t, c0.Send(1, 5, []float32{10}))
	must(t, c0.Send(1, 9, []float32{99}))
	must(t, c0.Send(1, 5, []float32{20}))
	if got := recvOK(t, c1, 0, 9); got[0] != 99 {
		t.Fatalf("tag 9 got %v", got)
	}
	if got := recvOK(t, c1, 0, 5); got[0] != 10 {
		t.Fatalf("first tag-5 got %v", got)
	}
	if got := recvOK(t, c1, 0, 5); got[0] != 20 {
		t.Fatalf("second tag-5 got %v", got)
	}
}

func TestRecvInto(t *testing.T) {
	w := mustWorld(t, 2)
	go w.Comm(0).Send(1, 0, []float32{4, 5})
	buf := make([]float32, 2)
	must(t, w.Comm(1).RecvInto(0, 0, buf))
	if buf[0] != 4 || buf[1] != 5 {
		t.Fatalf("buf = %v", buf)
	}
}

func TestRecvIntoLengthMismatch(t *testing.T) {
	w := mustWorld(t, 2)
	must(t, w.Comm(0).Send(1, 0, []float32{1}))
	wantError(t, w.Comm(1).RecvInto(0, 0, make([]float32, 3)), "transport: recv 1←0 tag 0: length 1 into buffer 3")
}

func TestSelfSendRecvErrors(t *testing.T) {
	w := mustWorld(t, 2)
	c := w.Comm(0)
	if err := c.Send(0, 0, nil); err == nil {
		t.Error("self send did not error")
	}
	if err := c.RecvInto(0, 0, nil); err == nil {
		t.Error("self recv did not error")
	}
	if err := c.Send(5, 0, nil); err == nil {
		t.Error("out-of-world send did not error")
	}
	if err := c.RecvInto(-1, 0, nil); err == nil {
		t.Error("out-of-world recv did not error")
	}
}

func TestWorldValidation(t *testing.T) {
	for _, n := range []int{0, -3} {
		if _, err := NewWorld(n); err == nil {
			t.Errorf("NewWorld(%d) did not error", n)
		}
	}
}

func TestCommRankBounds(t *testing.T) {
	w := mustWorld(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range rank did not panic")
		}
	}()
	w.Comm(2)
}

func TestBarrier(t *testing.T) {
	const n = 8
	counter := 0
	var mu sync.Mutex
	err := runWorld(n, func(c *Comm) error {
		mu.Lock()
		counter++
		mu.Unlock()
		if err := c.Barrier(); err != nil {
			return err
		}
		mu.Lock()
		if counter != n {
			t.Errorf("rank %d passed barrier with counter %d", c.Rank(), counter)
		}
		mu.Unlock()
		return c.Barrier()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rank panic not propagated")
		}
	}()
	runWorld(2, func(c *Comm) error {
		if c.Rank() == 1 {
			panic("rank 1 died")
		}
		return nil
	})
}

func TestRunAggregatesErrors(t *testing.T) {
	sentinel := errors.New("rank 1 refused")
	err := runWorld(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run error %v does not wrap rank error", err)
	}
}

func TestRunRejectsBadWorldSize(t *testing.T) {
	if err := runWorld(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("runWorld(0) did not error")
	}
}

func TestRingExchange(t *testing.T) {
	const n = 6
	results := make([]float32, n)
	err := runWorld(n, func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() - 1 + n) % n
		if err := c.Send(next, 0, []float32{float32(c.Rank())}); err != nil {
			return err
		}
		got := make([]float32, 1)
		if err := c.RecvInto(prev, 0, got); err != nil {
			return err
		}
		results[c.Rank()] = got[0]
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for r := 0; r < n; r++ {
		want := float32((r - 1 + n) % n)
		if results[r] != want {
			t.Errorf("rank %d got %v, want %v", r, results[r], want)
		}
	}
}

func TestManyMessagesDoNotDeadlock(t *testing.T) {
	// More messages than one mailbox depth, consumed concurrently.
	const msgs = 500
	err := runWorld(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				if err := c.Send(1, i%3, []float32{float32(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		seen := 0
		got := make([]float32, 1)
		for i := 0; i < msgs; i++ {
			if err := c.RecvInto(0, i%3, got); err != nil {
				return err
			}
			seen++
		}
		if seen != msgs {
			t.Errorf("received %d of %d", seen, msgs)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
