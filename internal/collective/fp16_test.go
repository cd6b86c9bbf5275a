package collective

import (
	"math"
	"math/rand"
	"testing"

	"segscale/internal/fp16"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// float32ToHalf and halfToFloat32 convert one value through the wire's
// slice kernels.
func float32ToHalf(f float32) uint16 {
	var h [1]uint16
	_ = fp16.Encode([]float32{f}, h[:])
	return h[0]
}

func halfToFloat32(h uint16) float32 {
	var f [1]float32
	_ = fp16.Decode([]uint16{h}, f[:])
	return f[0]
}

type allreduce16Fn func(c *transport.Comm, group []int, buf []uint16) error

var algs16 = map[string]allreduce16Fn{
	"naive": AllreduceNaive[uint16],
	"ring":  AllreduceRing[uint16],
	"rd":    AllreduceRecursiveDoubling[uint16],
	"rab":   AllreduceRabenseifner[uint16],
}

// runAllreduce16 executes fn on a world of p ranks where rank r
// contributes the binary16 encoding of ins[r], returning every rank's
// reduced buffer.
func runAllreduce16(t *testing.T, name string, fn allreduce16Fn, ins [][]float32) [][]uint16 {
	t.Helper()
	p := len(ins)
	n := len(ins[0])
	outs := make([][]uint16, p)
	errs := make([]error, p)
	runGroup(p, func(c *transport.Comm, group []int) {
		buf := make([]uint16, n)
		if err := fp16.Encode(ins[c.Rank()], buf); err != nil {
			errs[c.Rank()] = err
			return
		}
		errs[c.Rank()] = fn(c, group, buf)
		outs[c.Rank()] = buf
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("%s p=%d n=%d rank %d: %v", name, p, n, r, err)
		}
	}
	return outs
}

// Small integers are exact in binary16 (any sum below 2048 has no
// rounding), so across every algorithm and group size the compressed
// allreduce must reproduce the serial sum bit-for-bit — regardless of
// how each schedule orders its reduce hops.
func TestAllreduce16ExactSmallIntegers(t *testing.T) {
	sizes := []int{1, 2, 3, 5, 8, 13}
	lengths := []int{1, 7, 64, 257}
	for name, fn := range algs16 {
		for _, p := range sizes {
			for _, n := range lengths {
				ins := make([][]float32, p)
				want := make([]float32, n)
				for r := range ins {
					ins[r] = make([]float32, n)
					for i := range ins[r] {
						ins[r][i] = float32((r+i)%9 - 4)
						want[i] += ins[r][i]
					}
				}
				outs := runAllreduce16(t, name, fn, ins)
				for r := 0; r < p; r++ {
					for i, h := range outs[r] {
						if got := halfToFloat32(h); got != want[i] {
							t.Fatalf("%s p=%d n=%d rank %d elem %d: got %g, want %g",
								name, p, n, r, i, got, want[i])
						}
					}
				}
			}
		}
	}
}

// On random inputs every algorithm must stay within fp16 accumulation
// error of the float64 serial sum, and every rank must agree exactly
// with every other rank of the same run (the schedule is
// deterministic, so the reduced halves are identical across ranks).
func TestAllreduce16MatchesReferenceSum(t *testing.T) {
	const n = 129
	for name, fn := range algs16 {
		for _, p := range []int{2, 3, 7, 12} {
			rng := rand.New(rand.NewSource(int64(31*p + n)))
			ins := make([][]float32, p)
			want := make([]float64, n)
			for r := range ins {
				ins[r] = make([]float32, n)
				for i := range ins[r] {
					ins[r][i] = float32(rng.NormFloat64())
					want[i] += float64(halfToFloat32(float32ToHalf(ins[r][i])))
				}
			}
			outs := runAllreduce16(t, name, fn, ins)
			// Each reduce hop can lose up to half an ULP; with |sum|
			// bounded by ~4·sqrt(p) the tolerance p·2⁻¹⁰·(1+|want|)
			// comfortably covers every schedule depth.
			for i := 0; i < n; i++ {
				got := float64(halfToFloat32(outs[0][i]))
				tol := float64(p) * (1.0 / 1024) * (1 + math.Abs(want[i]))
				if math.Abs(got-want[i]) > tol {
					t.Errorf("%s p=%d elem %d: got %g, want %g (tol %g)", name, p, i, got, want[i], tol)
				}
			}
			for r := 1; r < p; r++ {
				for i := range outs[r] {
					if outs[r][i] != outs[0][i] {
						t.Fatalf("%s p=%d: rank %d disagrees with rank 0 at elem %d: %#04x vs %#04x",
							name, p, r, i, outs[r][i], outs[0][i])
					}
				}
			}
		}
	}
}

// The hierarchical compositions must also reproduce exact small-int
// sums, on both the torus path (even groups + ring intra pick) and
// the leader path (uneven groups), plus the Summit-machine wrappers.
func TestAllreduce16Hierarchical(t *testing.T) {
	intra, inter := topology.SummitLinkSpecs()
	cases := []struct {
		name   string
		groups [][]int
	}{
		{"torus-2x3", [][]int{{0, 1, 2}, {3, 4, 5}}},
		{"torus-3x2", [][]int{{0, 1}, {2, 3}, {4, 5}}},
		{"leader-uneven", [][]int{{0, 1, 2}, {3, 4}, {5}}},
		{"single-node", [][]int{{0, 1, 2, 3}}},
	}
	const n = 37
	for _, tc := range cases {
		p := 0
		for _, g := range tc.groups {
			p += len(g)
		}
		ins := make([][]float32, p)
		want := make([]float32, n)
		for r := range ins {
			ins[r] = make([]float32, n)
			for i := range ins[r] {
				ins[r][i] = float32((2*r+i)%7 - 3)
				want[i] += ins[r][i]
			}
		}
		outs := make([][]uint16, p)
		errs := make([]error, p)
		runWorld(p, func(c *transport.Comm) error {
			buf := make([]uint16, n)
			if err := fp16.Encode(ins[c.Rank()], buf); err != nil {
				return err
			}
			errs[c.Rank()] = AllreduceHierGroups(c, tc.groups, intra, inter, buf)
			outs[c.Rank()] = buf
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("%s rank %d: %v", tc.name, r, err)
			}
		}
		for r := 0; r < p; r++ {
			for i, h := range outs[r] {
				if got := halfToFloat32(h); got != want[i] {
					t.Fatalf("%s rank %d elem %d: got %g, want %g", tc.name, r, i, got, want[i])
				}
			}
		}
	}
}

// The Machine-shaped entry points (leader hierarchy and two-level)
// agree with the serial sum on a multi-node Summit slice.
func TestAllreduce16HierMachineWrappers(t *testing.T) {
	mach := topology.Summit(2) // 2 nodes × 6 GPUs
	p := mach.Ranks()
	const n = 23
	for name, fn := range map[string]func(*transport.Comm, topology.Machine, []uint16) error{
		"hier-leader":   AllreduceHierLeader[uint16],
		"hier-twolevel": AllreduceHierTwoLevel[uint16],
	} {
		ins := make([][]float32, p)
		want := make([]float32, n)
		for r := range ins {
			ins[r] = make([]float32, n)
			for i := range ins[r] {
				ins[r][i] = float32((r*i)%5 - 2)
				want[i] += ins[r][i]
			}
		}
		outs := make([][]uint16, p)
		runWorld(p, func(c *transport.Comm) error {
			buf := make([]uint16, n)
			if err := fp16.Encode(ins[c.Rank()], buf); err != nil {
				return err
			}
			if err := fn(c, mach, buf); err != nil {
				return err
			}
			outs[c.Rank()] = buf
			return nil
		})
		for r := 0; r < p; r++ {
			if outs[r] == nil {
				t.Fatalf("%s rank %d produced no output", name, r)
			}
			for i, h := range outs[r] {
				if got := halfToFloat32(h); got != want[i] {
					t.Fatalf("%s rank %d elem %d: got %g, want %g", name, r, i, got, want[i])
				}
			}
		}
	}
}

// Group-membership and shape validation errors mirror the float32
// collectives.
func TestAllreduce16Validation(t *testing.T) {
	intra, inter := topology.SummitLinkSpecs()
	runWorld(1, func(c *transport.Comm) error {
		if err := AllreduceNaive(c, []int{1, 2}, []uint16{0}); err == nil {
			t.Error("naive16 accepted a group that excludes the caller")
		}
		if err := AllreduceHierGroups(c, nil, intra, inter, []uint16{0}); err == nil {
			t.Error("hier16 accepted an empty partition")
		}
		if err := AllreduceHierGroups(c, [][]int{{0}, {}}, intra, inter, []uint16{0}); err == nil {
			t.Error("hier16 accepted an empty node group")
		}
		return nil
	})
}
