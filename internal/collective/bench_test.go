package collective

import (
	"fmt"
	"testing"

	"segscale/internal/topology"
	"segscale/internal/transport"
)

func benchAllreduce(b *testing.B, fn allreduceFn, p, n int) {
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transport.Run(p, func(c *transport.Comm) error {
			buf := make([]float32, n)
			copy(buf, data[c.Rank()])
			if err := fn(c, group, buf); err != nil {
				b.Error(err)
			}
			return nil
		})
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
				b.Run(fmt.Sprintf("%s/p%d/n%d", alg.name, p, n), func(b *testing.B) {
					benchAllreduce(b, alg.fn, p, n)
				})
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

// TestAllreduceAllocBudget pins the allocations of one allreduce of
// 65 536 elements on a long-lived world, per algorithm, world size and
// wire: the before-number for an allocation-free transport. Today each
// message costs the transport a payload copy and two channels, so the
// counts follow the schedules' message counts and are the same on both
// wires. Ranks interleave differently from run to run, so each row has
// a ceiling of its pin plus 2.
func TestAllreduceAllocBudget(t *testing.T) {
	const n = 65536
	mach := topology.Machine{Nodes: 2, GPUsPer: 2}
	type alg struct {
		name string
		pin  float64
		f32  func(c *transport.Comm, group []int, buf []float32) error
		f16  func(c *transport.Comm, group []int, buf []uint16) error
	}
	for _, world := range []struct {
		size int
		algs []alg
	}{
		{2, []alg{
			{"ring", 12, AllreduceRing[float32], AllreduceRing[uint16]},
			{"rd", 6, AllreduceRecursiveDoubling[float32], AllreduceRecursiveDoubling[uint16]},
			{"rab", 14, AllreduceRabenseifner[float32], AllreduceRabenseifner[uint16]},
		}},
		{4, []alg{
			{"ring", 72, AllreduceRing[float32], AllreduceRing[uint16]},
			{"rd", 24, AllreduceRecursiveDoubling[float32], AllreduceRecursiveDoubling[uint16]},
			{"rab", 52, AllreduceRabenseifner[float32], AllreduceRabenseifner[uint16]},
			{"hier2", 34,
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
					t.Logf("allocs/call: %.0f (pin %.0f, ceiling %.0f)", got[i][j], a.pin, a.pin+2)
					if got[i][j] > a.pin+2 {
						t.Errorf("allocates %.0f times per call, ceiling %.0f", got[i][j], a.pin+2)
					}
				})
			}
		}
	}
}
