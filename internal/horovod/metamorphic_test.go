package horovod

import (
	"math"
	"testing"

	"segscale/internal/topology"
	"segscale/internal/transport"
)

// TestMetamorphicFusionGrouping: the fusion threshold is a
// performance knob, not a numerics knob. Averaged gradients must
// agree — within float32 reassociation tolerance — no matter how the
// planner groups tensors into fused buffers: unfused (threshold 0),
// tiny buffers that split every tensor apart, a mid-size threshold
// that packs a few tensors per buffer, and the default that fuses
// everything into one.
func TestMetamorphicFusionGrouping(t *testing.T) {
	const world = 4
	shapes := []int{7, 129, 3, 64, 1, 255, 31}
	thresholds := []int{0, 64, 600, 64 << 20}

	run := func(threshold int) [][][]float32 {
		cfg := Default()
		cfg.FusionThreshold = threshold
		mach := topology.ForGPUs(world)
		results := make([][][]float32, world)
		err := runWorld(world, func(c *transport.Comm) error {
			rt := newRuntime(c, mach, cfg)
			ps := makeParams(c.Rank(), shapes)
			if err := rt.AllreduceGrads(ps); err != nil {
				return err
			}
			grads := make([][]float32, len(ps))
			for i, p := range ps {
				grads[i] = append([]float32(nil), p.G.Data...)
			}
			results[c.Rank()] = grads
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}

	base := run(thresholds[0])
	for _, th := range thresholds[1:] {
		got := run(th)
		for r := 0; r < world; r++ {
			for i := range shapes {
				for j := range base[r][i] {
					d := math.Abs(float64(got[r][i][j] - base[r][i][j]))
					if d > 1e-5 {
						t.Fatalf("threshold %d rank %d tensor %d[%d]: %g vs %g (diff %g)",
							th, r, i, j, got[r][i][j], base[r][i][j], d)
					}
				}
			}
		}
	}
}
