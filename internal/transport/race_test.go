package transport

import (
	"sync"
	"testing"
)

// TestBarrierHappensBefore checks the memory-ordering contract: writes
// a rank makes before Barrier must be visible to every rank after it.
// Each iteration every rank publishes into its own slot, crosses the
// barrier, and reads all slots without further synchronisation — under
// -race this fails if the barrier's generation handoff is broken. The
// second barrier keeps the next iteration's writes from racing with
// this iteration's reads.
func TestBarrierHappensBefore(t *testing.T) {
	const n = 8
	const iters = 200
	shared := make([]int, n)
	err := runWorld(n, func(c *Comm) error {
		for it := 1; it <= iters; it++ {
			shared[c.Rank()] = it
			if err := c.Barrier(); err != nil {
				return err
			}
			for r := 0; r < n; r++ {
				if shared[r] != it {
					t.Errorf("iter %d rank %d saw slot %d = %d", it, c.Rank(), r, shared[r])
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestBarrierManyRanksLooping stresses the generation counter with a
// wide world and tight loop, where a stale barrierCh read would wake a
// rank in the wrong generation.
func TestBarrierManyRanksLooping(t *testing.T) {
	const n = 32
	const iters = 500
	err := runWorld(n, func(c *Comm) error {
		for it := 0; it < iters; it++ {
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestBarrierInterleavedWithTraffic mixes barrier crossings with ring
// send/receive traffic so barrier state and mailbox channels are exercised
// together, the way collective compositions use them.
func TestBarrierInterleavedWithTraffic(t *testing.T) {
	const n = 6
	const iters = 100
	err := runWorld(n, func(c *Comm) error {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() - 1 + n) % n
		for it := 0; it < iters; it++ {
			if err := c.Send(next, it, []float32{float32(c.Rank()), float32(it)}); err != nil {
				return err
			}
			got := make([]float32, 2)
			if err := c.RecvInto(prev, it, got); err != nil {
				return err
			}
			if int(got[0]) != prev || int(got[1]) != it {
				t.Errorf("rank %d iter %d got %v", c.Rank(), it, got)
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestSendSnapshotUnderRace mutates the send buffer immediately after
// every Send in a tight loop; if Send aliased instead of copying, the
// writer would race with the receiver's read and -race would flag it.
// Every receive recycles its payload, so later sends on the pair copy
// into buffers the receiver has consumed: a payload put back on the
// free list before it is copied out would race with those sends, and
// read a wrong value.
func TestSendSnapshotUnderRace(t *testing.T) {
	const iters = 300
	err := runWorld(2, func(c *Comm) error {
		buf := []float32{0}
		for it := 0; it < iters; it++ {
			if c.Rank() == 0 {
				buf[0] = float32(it)
				if err := c.Send(1, it, buf); err != nil {
					return err
				}
				buf[0] = -1 // would race with rank 1's read if Send aliased
				continue
			}
			if err := c.RecvInto(0, it, buf); err != nil {
				return err
			}
			if buf[0] != float32(it) {
				t.Errorf("iter %d got %g", it, buf[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestConcurrentWorlds runs several independent worlds at once; their
// barrier and mailbox state must be fully isolated.
func TestConcurrentWorlds(t *testing.T) {
	const worlds = 4
	var wg sync.WaitGroup
	for wi := 0; wi < worlds; wi++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := runWorld(4, func(c *Comm) error {
				for it := 0; it < 50; it++ {
					if err := c.Barrier(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Errorf("Run: %v", err)
			}
		}()
	}
	wg.Wait()
}
