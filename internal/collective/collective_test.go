package collective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"segscale/internal/topology"
	"segscale/internal/transport"
)

// runWorld runs fn on every rank of a fresh n-rank world.
func runWorld(n int, fn func(c *transport.Comm) error) error {
	w, err := transport.NewWorld(n)
	if err != nil {
		return err
	}
	return w.Run(fn)
}

// runGroup executes fn on a world of n ranks with group = all ranks.
func runGroup(n int, fn func(c *transport.Comm, group []int)) {
	group := make([]int, n)
	for i := range group {
		group[i] = i
	}
	runWorld(n, func(c *transport.Comm) error { fn(c, group); return nil })
}

// makeInputs builds deterministic per-rank vectors and their expected
// elementwise sum.
func makeInputs(p, n int, seed int64) (ins [][]float32, want []float32) {
	rng := rand.New(rand.NewSource(seed))
	ins = make([][]float32, p)
	want = make([]float32, n)
	for r := 0; r < p; r++ {
		ins[r] = make([]float32, n)
		for i := range ins[r] {
			ins[r][i] = float32(rng.NormFloat64())
			want[i] += ins[r][i]
		}
	}
	return ins, want
}

func maxAbsDiff(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(float64(a[i] - b[i])); d > m {
			m = d
		}
	}
	return m
}

type allreduceFn func(c *transport.Comm, group []int, buf []float32) error

func checkAllreduce(t *testing.T, name string, fn allreduceFn, p, n int, seed int64) {
	t.Helper()
	ins, want := makeInputs(p, n, seed)
	outs := make([][]float32, p)
	errs := make([]error, p)
	runGroup(p, func(c *transport.Comm, group []int) {
		buf := make([]float32, n)
		copy(buf, ins[c.Rank()])
		errs[c.Rank()] = fn(c, group, buf)
		outs[c.Rank()] = buf
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%s p=%d n=%d rank %d: %v", name, p, n, r, err)
		}
	}
	for r := 0; r < p; r++ {
		if d := maxAbsDiff(outs[r], want); d > 1e-4*float64(p) {
			t.Errorf("%s p=%d n=%d rank %d: max diff %g", name, p, n, r, d)
		}
	}
}

func TestAllreduceAlgorithmsMatchSerialSum(t *testing.T) {
	algs := map[string]allreduceFn{
		"naive": AllreduceNaive[float32],
		"ring":  AllreduceRing[float32],
		"rd":    AllreduceRecursiveDoubling[float32],
		"rab":   AllreduceRabenseifner[float32],
	}
	sizes := []int{1, 2, 3, 7, 64, 1023}
	groups := []int{2, 3, 4, 5, 6, 8, 13}
	for name, fn := range algs {
		for _, p := range groups {
			for _, n := range sizes {
				checkAllreduce(t, name, fn, p, n, int64(p*10000+n))
			}
		}
	}
}

func TestAllreduceSingleRankNoop(t *testing.T) {
	buf := []float32{1, 2, 3}
	runGroup(1, func(c *transport.Comm, group []int) {
		if err := AllreduceRing(c, group, buf); err != nil {
			t.Errorf("ring: %v", err)
		}
		if err := AllreduceRecursiveDoubling(c, group, buf); err != nil {
			t.Errorf("rd: %v", err)
		}
	})
	if buf[0] != 1 || buf[2] != 3 {
		t.Fatalf("single-rank allreduce mutated buffer: %v", buf)
	}
}

func TestAllreduceRingFewerElementsThanRanks(t *testing.T) {
	// n < p leaves some ring segments empty; must still be correct.
	checkAllreduce(t, "ring", AllreduceRing, 8, 3, 42)
	checkAllreduce(t, "rab", AllreduceRabenseifner, 8, 3, 43)
}

func TestRabenseifnerLargeBuffer(t *testing.T) {
	// Exercise the recursive halving/doubling windows on a buffer
	// large enough for multiple non-trivial splits, odd length, and
	// non-power-of-two group.
	checkAllreduce(t, "rab", AllreduceRabenseifner, 6, 4097, 7)
	checkAllreduce(t, "rab", AllreduceRabenseifner, 8, 4096, 8)
	checkAllreduce(t, "rab", AllreduceRabenseifner, 12, 1000, 9)
}

func TestAllreduceHierLeaderMatchesNaive(t *testing.T) {
	for _, cfg := range []struct{ nodes, per int }{
		{2, 3}, {2, 6}, {4, 6}, {3, 2}, {1, 6},
	} {
		mach := topology.Machine{Nodes: cfg.nodes, GPUsPer: cfg.per}
		p := mach.Ranks()
		n := 257
		ins, want := makeInputs(p, n, int64(p))
		outs := make([][]float32, p)
		errs := make([]error, p)
		runWorld(p, func(c *transport.Comm) error {
			buf := make([]float32, n)
			copy(buf, ins[c.Rank()])
			errs[c.Rank()] = AllreduceHierLeader(c, mach, buf)
			outs[c.Rank()] = buf
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("hier %d×%d rank %d: %v", cfg.nodes, cfg.per, r, err)
			}
		}
		for r := 0; r < p; r++ {
			if d := maxAbsDiff(outs[r], want); d > 1e-4*float64(p) {
				t.Errorf("hier %d×%d rank %d: max diff %g", cfg.nodes, cfg.per, r, d)
			}
		}
	}
}

func TestAllreduceHierLeaderWorldMismatchErrors(t *testing.T) {
	mach := topology.Summit(2) // 12 ranks
	errs := make([]error, 2)
	runWorld(2, func(c *transport.Comm) error {
		errs[c.Rank()] = AllreduceHierLeader(c, mach, make([]float32, 4))
		return nil
	})
	for r, err := range errs {
		if err == nil {
			t.Errorf("rank %d: world/machine mismatch did not error", r)
		}
	}
}

func TestReduceTreeAndBcastTree(t *testing.T) {
	for _, p := range []int{2, 3, 5, 6, 8} {
		n := 33
		ins, want := makeInputs(p, n, int64(p*7))
		outs := make([][]float32, p)
		runGroup(p, func(c *transport.Comm, group []int) {
			buf := make([]float32, n)
			copy(buf, ins[c.Rank()])
			if err := ReduceTree(c, group, buf); err != nil {
				t.Errorf("reduce p=%d rank %d: %v", p, c.Rank(), err)
			}
			if err := BcastTree(c, group, buf); err != nil {
				t.Errorf("bcast p=%d rank %d: %v", p, c.Rank(), err)
			}
			outs[c.Rank()] = buf
		})
		for r := 0; r < p; r++ {
			if d := maxAbsDiff(outs[r], want); d > 1e-4*float64(p) {
				t.Errorf("reduce+bcast p=%d rank %d: diff %g", p, r, d)
			}
		}
	}
}

func TestStrangerRankErrors(t *testing.T) {
	runGroup(2, func(c *transport.Comm, group []int) {
		if c.Rank() != 0 {
			return
		}
		if err := AllreduceRing(c, []int{5, 6}, make([]float32, 4)); err == nil {
			t.Error("stranger rank did not error")
		}
	})
}

func TestSegmentPartition(t *testing.T) {
	// Segments must tile [0,n) exactly, in order, sizes differing ≤1.
	for _, n := range []int{0, 1, 5, 17, 100} {
		for _, p := range []int{1, 2, 3, 7, 13} {
			pos := 0
			minSz, maxSz := n+1, -1
			for i := 0; i < p; i++ {
				lo, hi := segment(n, p, i)
				if lo != pos {
					t.Fatalf("n=%d p=%d seg %d: lo=%d want %d", n, p, i, lo, pos)
				}
				sz := hi - lo
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
				pos = hi
			}
			if pos != n {
				t.Fatalf("n=%d p=%d: segments cover %d", n, p, pos)
			}
			if maxSz-minSz > 1 {
				t.Fatalf("n=%d p=%d: unbalanced segments (%d..%d)", n, p, minSz, maxSz)
			}
		}
	}
}

// Property: ring and recursive doubling agree with naive for random
// shapes.
func TestPropertyAllreduceEquivalence(t *testing.T) {
	f := func(pp, nn uint8, seed int64) bool {
		p := int(pp%7) + 2
		n := int(nn%50) + 1
		ins, _ := makeInputs(p, n, seed)
		run := func(fn allreduceFn) [][]float32 {
			outs := make([][]float32, p)
			runGroup(p, func(c *transport.Comm, group []int) {
				buf := make([]float32, n)
				copy(buf, ins[c.Rank()])
				if err := fn(c, group, buf); err != nil {
					t.Errorf("p=%d n=%d rank %d: %v", p, n, c.Rank(), err)
				}
				outs[c.Rank()] = buf
			})
			return outs
		}
		naive := run(AllreduceNaive)
		ring := run(AllreduceRing)
		rd := run(AllreduceRecursiveDoubling)
		rab := run(AllreduceRabenseifner)
		for r := 0; r < p; r++ {
			if maxAbsDiff(naive[r], ring[r]) > 1e-3 || maxAbsDiff(naive[r], rd[r]) > 1e-3 ||
				maxAbsDiff(naive[r], rab[r]) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
