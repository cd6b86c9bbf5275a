package horovod

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"segscale/internal/netmodel"
	"segscale/internal/nn"
	"segscale/internal/tensor"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// scalerParams builds one rank's gradients for the scaled-allreduce
// equivalence test: log-uniform magnitudes down to where pre-scaling
// lands them in binary16's subnormal range (and below it), exact
// zeros, and — when poison is set — ±Inf, NaN and a value the pre-
// scale overflows, each on a different rank and tensor.
func scalerParams(rank int, shapes []int, poison bool) []*nn.Param {
	r := rand.New(rand.NewSource(int64(rank) + 7))
	ps := make([]*nn.Param, len(shapes))
	for i, n := range shapes {
		ps[i] = &nn.Param{Name: fmt.Sprint("p", i), W: tensor.New(n)}
	}
	nn.LayOutGrads(ps)
	for _, p := range ps {
		g := p.G
		for j := range g.Data {
			switch r.Intn(8) {
			case 0: // exact zero
			case 1: // binary16-subnormal after a 2¹⁰ scale: below 2⁻²⁴
				g.Data[j] = float32(math.Ldexp(1+r.Float64(), -25-r.Intn(12)))
			default:
				g.Data[j] = float32(math.Exp(math.Log(1e-9)+r.Float64()*math.Log(1e10))) * float32(1-2*r.Intn(2))
			}
		}
	}
	if poison {
		bad := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 3e38}
		ps[rank%len(ps)].G.Data[0] = bad[rank%len(bad)]
	}
	return ps
}

// threePass is the definition AllreduceGradsScaled must reproduce:
// scale every gradient in place, allreduce, scan for Inf/NaN, unscale
// in place — the scaler as three passes around the allreduce.
func threePass(rt *Runtime, ps []*nn.Param, pre, post float32) (bool, error) {
	for _, p := range ps {
		p.G.Scale(pre)
	}
	if err := rt.AllreduceGrads(ps); err != nil {
		return false, err
	}
	overflow := false
	for _, p := range ps {
		for _, v := range p.G.Data {
			if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
				overflow = true
			}
		}
		p.G.Scale(post)
	}
	return overflow, nil
}

// TestAllreduceGradsScaledMatchesThreePass: gradients and verdict are
// bitwise those of scale → AllreduceGrads → overflow scan → unscale,
// for every world size, algorithm and wire, clean and poisoned.
func TestAllreduceGradsScaledMatchesThreePass(t *testing.T) {
	shapes := []int{7, 129, 3, 64, 1}
	algs := map[string]func(*Config){
		"ring":       func(*Config) {},
		"rd":         func(c *Config) { c.Algorithm = netmodel.AlgRecursiveDoubling },
		"rab":        func(c *Config) { c.Algorithm = netmodel.AlgRabenseifner },
		"hier":       func(c *Config) { c.Hierarchical = true },
		"two-level":  func(c *Config) { c.Algorithm = netmodel.AlgHierTwoLevel },
		"tiny-fused": func(c *Config) { c.FusionThreshold = 64 },
	}
	for world := 1; world <= 4; world++ {
		mach := topology.ExactFor(world)
		if world == 4 {
			mach = topology.Machine{Nodes: 2, GPUsPer: 2} // a real second level
		}
		for name, set := range algs {
			for _, half := range []bool{true, false} {
				for _, poison := range []bool{false, true} {
					cfg := Default()
					set(&cfg)
					cfg.FP16Compression = half
					const pre, post = 1024, float32(1) / 1024
					sawOverflow := false
					err := runWorld(world, func(c *transport.Comm) error {
						rt := newRuntime(c, mach, cfg)
						want := scalerParams(c.Rank(), shapes, poison)
						wantBad, err := threePass(rt, want, pre, post)
						if err != nil {
							return err
						}
						got := scalerParams(c.Rank(), shapes, poison)
						gotBad, err := rt.AllreduceGradsScaled(got, pre, post)
						if err != nil {
							return err
						}
						if gotBad != wantBad {
							return fmt.Errorf("rank %d: verdict %v, three-pass %v", c.Rank(), gotBad, wantBad)
						}
						for i := range got {
							for j, v := range got[i].G.Data {
								if w := want[i].G.Data[j]; math.Float32bits(v) != math.Float32bits(w) {
									return fmt.Errorf("rank %d tensor %d[%d]: %x, three-pass %x",
										c.Rank(), i, j, math.Float32bits(v), math.Float32bits(w))
								}
							}
						}
						if c.Rank() == 0 {
							sawOverflow = gotBad
						}
						return nil
					})
					if err != nil {
						t.Fatalf("world %d %s fp16=%v poison=%v: %v", world, name, half, poison, err)
					}
					if sawOverflow != poison {
						t.Fatalf("world %d %s fp16=%v: verdict %v on poison=%v input", world, name, half, sawOverflow, poison)
					}
				}
			}
		}
	}
}

// The SyncBN reduction stages through a runtime-owned buffer: after
// the first call it allocates nothing of its own (what remains is the
// transport's per-message copies, the same with any staging).
func TestAllreduceSumFloat64ReusesStaging(t *testing.T) {
	err := runWorld(2, func(c *transport.Comm) error {
		rt := newRuntime(c, topology.ExactFor(2), Default())
		for round, n := range []int{64, 16, 64} {
			buf := make([]float64, n)
			for i := range buf {
				buf[i] = float64(c.Rank() + i)
			}
			if err := rt.AllreduceSumFloat64(buf); err != nil {
				return err
			}
			for i, v := range buf {
				if want := float64(1 + 2*i); v != want {
					return fmt.Errorf("round %d: sum[%d] = %g, want %g", round, i, v, want)
				}
			}
			if cap(rt.sum32) != 64 {
				return fmt.Errorf("round %d: staging capacity %d, want the high-water 64", round, cap(rt.sum32))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
