package collective

import (
	"fmt"
	"testing"

	"segscale/internal/topology"
	"segscale/internal/transport"
)

// benchAllreduce times one allreduce of n elements over p ranks. The
// fresh form builds a world per call, so every call also pays world
// construction and cold free lists; the long-lived form runs b.N calls
// per rank on one world, the way a training run drives it.
func benchAllreduce(b *testing.B, fn allreduceFn, p, n int, longLived bool) {
	b.Helper()
	group := make([]int, p)
	for i := range group {
		group[i] = i
	}
	data := make([][]float32, p)
	for r := range data {
		data[r] = make([]float32, n)
		for i := range data[r] {
			data[r][i] = float32(r + i)
		}
	}
	b.SetBytes(int64(4 * n))
	calls := func(c *transport.Comm, count int) error {
		buf := make([]float32, n)
		copy(buf, data[c.Rank()])
		for i := 0; i < count; i++ {
			if err := fn(c, group, buf); err != nil {
				return err
			}
		}
		return nil
	}
	if longLived {
		w, err := transport.NewWorld(p)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		if err := w.Run(func(c *transport.Comm) error { return calls(c, b.N) }); err != nil {
			b.Fatal(err)
		}
		return
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runWorld(p, func(c *transport.Comm) error { return calls(c, 1) }); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllreduce(b *testing.B) {
	algs := []struct {
		name string
		fn   allreduceFn
	}{
		{"ring", AllreduceRing[float32]},
		{"recursive-doubling", AllreduceRecursiveDoubling[float32]},
		{"rabenseifner", AllreduceRabenseifner[float32]},
		{"naive", AllreduceNaive[float32]},
	}
	for _, alg := range algs {
		for _, p := range []int{4, 8} {
			for _, n := range []int{1 << 10, 1 << 16} {
				for _, longLived := range []bool{false, true} {
					world := "fresh"
					if longLived {
						world = "long-lived"
					}
					b.Run(fmt.Sprintf("%s/p%d/n%d/%s", alg.name, p, n, world), func(b *testing.B) {
						benchAllreduce(b, alg.fn, p, n, longLived)
					})
				}
			}
		}
	}
}

// allocsPerCall runs call on every rank of c's world: one warm-up, then
// rank 0 counts 25 calls with testing.AllocsPerRun (after a warm-up of
// its own) while the other ranks mirror them. The count is process-wide,
// so it covers every rank's share of a call. Ranks drift apart by up to
// a call at the window's edges; 25 calls average that down to ±1.
func allocsPerCall(c *transport.Comm, call func() error) (float64, error) {
	const runs = 25
	var err error
	f := func() {
		if e := call(); e != nil && err == nil {
			err = e
		}
	}
	f()
	if c.Rank() != 0 {
		for i := 0; i <= runs; i++ {
			f()
		}
		return 0, err
	}
	return testing.AllocsPerRun(runs, f), err
}

// checkAllocRow holds one row of an allocation budget. An exact row
// (ceiling 0) must read its pin: more is a regression, fewer a gain the
// table must record. A banded row, whose count moves with how far the
// ranks drift apart at the window's edges, fails only above its
// ceiling.
func checkAllocRow(t *testing.T, got, pin, ceiling float64) {
	t.Helper()
	t.Logf("allocs/call: %.1f (pin %.0f, ceiling %.0f)", got, pin, ceiling)
	switch {
	case ceiling > 0 && got > ceiling:
		t.Errorf("allocates %.1f times per call, ceiling %.0f", got, ceiling)
	case ceiling == 0 && got != pin:
		t.Errorf("allocates %.1f times per call, pinned at %.0f: a regression if more, re-pin to %.0f if fewer", got, pin, got)
	}
}

// TestAllreduceAllocBudget pins the allocations of one allreduce of
// 65 536 elements on a long-lived world, per algorithm, world size and
// wire. The transport recycles every payload and makes its wake-ups
// once per mailbox, and the schedules keep their bookkeeping on the
// stack, so the flat algorithms allocate nothing: their rows are exact
// pins of 0, which no window edge can move. hier2 still builds its node
// groups on every call — AllreduceHierTwoLevel's groups, hierTorus's
// cross-node group — and ranks drifting apart by up to a call at the
// window's edges move that count, so its row has a ceiling.
func TestAllreduceAllocBudget(t *testing.T) {
	const n = 65536
	mach := topology.Machine{Nodes: 2, GPUsPer: 2}
	type alg struct {
		name         string
		pin, ceiling float64
		f32          func(c *transport.Comm, group []int, buf []float32) error
		f16          func(c *transport.Comm, group []int, buf []uint16) error
	}
	for _, world := range []struct {
		size int
		algs []alg
	}{
		{2, []alg{
			{"ring", 0, 0, AllreduceRing[float32], AllreduceRing[uint16]},
			{"rd", 0, 0, AllreduceRecursiveDoubling[float32], AllreduceRecursiveDoubling[uint16]},
			{"rab", 0, 0, AllreduceRabenseifner[float32], AllreduceRabenseifner[uint16]},
		}},
		{4, []alg{
			{"ring", 0, 0, AllreduceRing[float32], AllreduceRing[uint16]},
			{"rd", 0, 0, AllreduceRecursiveDoubling[float32], AllreduceRecursiveDoubling[uint16]},
			{"rab", 0, 0, AllreduceRabenseifner[float32], AllreduceRabenseifner[uint16]},
			{"hier2", 16, 18,
				func(c *transport.Comm, _ []int, b []float32) error { return AllreduceHierTwoLevel(c, mach, b) },
				func(c *transport.Comm, _ []int, b []uint16) error { return AllreduceHierTwoLevel(c, mach, b) }},
		}},
	} {
		w, err := transport.NewWorld(world.size)
		if err != nil {
			t.Fatal(err)
		}
		group := make([]int, world.size)
		for i := range group {
			group[i] = i
		}
		got := make([][2]float64, len(world.algs))
		err = w.Run(func(c *transport.Comm) error {
			b32, b16 := make([]float32, n), make([]uint16, n)
			for i, a := range world.algs {
				for j, call := range []func() error{
					func() error { return a.f32(c, group, b32) },
					func() error { return a.f16(c, group, b16) },
				} {
					allocs, err := allocsPerCall(c, call)
					if err != nil {
						return err
					}
					if c.Rank() == 0 {
						got[i][j] = allocs
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range world.algs {
			for j, wire := range []string{"fp32", "fp16"} {
				t.Run(fmt.Sprintf("w%d_%s_%s", world.size, a.name, wire), func(t *testing.T) {
					checkAllocRow(t, got[i][j], a.pin, a.ceiling)
				})
			}
		}
	}
}
