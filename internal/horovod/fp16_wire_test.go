package horovod

import (
	"fmt"
	"math"
	"testing"

	"segscale/internal/netmodel"
	"segscale/internal/telemetry"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// totalMetric sums a gathered counter across every rank lane (or
// returns the max for gauges — both reduce the same way here since
// only one lane is inspected at a time when that matters).
func totalMetric(t *testing.T, col *telemetry.Collector, name string) float64 {
	t.Helper()
	for _, m := range col.Gather() {
		if m.Name == name {
			total := 0.0
			for _, v := range m.PerLane {
				total += v
			}
			return total
		}
	}
	t.Fatalf("metric %s not gathered", name)
	return 0
}

// runGradsInstrumented performs one instrumented AllreduceGrads over
// the world and returns the gathered telemetry.
func runGradsInstrumented(t *testing.T, cfg Config, world int, shapes []int) *telemetry.Collector {
	t.Helper()
	col := telemetry.NewCollector()
	mach := topology.ForGPUs(world)
	err := runWorld(world, func(c *transport.Comm) error {
		c.SetProbe(col.NewProbe(fmt.Sprintf("rank%d", c.Rank()), telemetry.NewStepClock()))
		rt := newRuntime(c, mach, cfg)
		return rt.AllreduceGrads(makeParams(c.Rank(), shapes))
	})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// The regression the issue pins: with FP16Compression the fused-buffer
// metrics and the live transport byte counters must report exactly 2
// bytes per element — precisely half the fp32 run's bytes, since both
// runs move the same element counts through the same schedule.
func TestFP16WireBytesExactlyHalve(t *testing.T) {
	const world = 4
	shapes := []int{7, 129, 3, 64, 1}

	cfg32 := Default()
	cfg16 := Default()
	cfg16.FP16Compression = true
	col32 := runGradsInstrumented(t, cfg32, world, shapes)
	col16 := runGradsInstrumented(t, cfg16, world, shapes)

	for _, name := range []string{
		"horovod_fused_bytes",
		"transport_sent_bytes",
		"transport_received_bytes",
	} {
		b32 := totalMetric(t, col32, name)
		b16 := totalMetric(t, col16, name)
		if b32 <= 0 || b16 <= 0 {
			t.Fatalf("%s: empty counters (fp32 %.0f, fp16 %.0f)", name, b32, b16)
		}
		if b32 != 2*b16 {
			t.Errorf("%s: fp32 %.0f vs fp16 %.0f — want exactly 2x", name, b32, b16)
		}
	}

	// The fill-ratio gauge reports wire bytes over threshold, so it
	// halves too (every rank publishes the same value; summing lanes
	// preserves the ratio).
	f32 := totalMetric(t, col32, "horovod_fusion_fill_ratio")
	f16 := totalMetric(t, col16, "horovod_fusion_fill_ratio")
	if f32 <= 0 || math.Abs(f32-2*f16) > 1e-12*f32 {
		t.Errorf("horovod_fusion_fill_ratio: fp32 %g vs fp16 %g — want exactly 2x", f32, f16)
	}
}

// testAllreduceGradsFP16WithConfig checks the compressed allreduce
// against the exact average within binary16 accumulation tolerance.
func testAllreduceGradsFP16WithConfig(t *testing.T, cfg Config, world int) {
	t.Helper()
	cfg.FP16Compression = true
	shapes := []int{7, 129, 3, 64, 1}
	expect := make([][]float32, len(shapes))
	for i, n := range shapes {
		expect[i] = make([]float32, n)
	}
	for r := 0; r < world; r++ {
		ps := makeParams(r, shapes)
		for i, p := range ps {
			for j, v := range p.G.Data {
				expect[i][j] += v / float32(world)
			}
		}
	}
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
	for r := 0; r < world; r++ {
		for i := range shapes {
			for j := range expect[i] {
				got := float64(results[r][i][j])
				want := float64(expect[i][j])
				if d := math.Abs(got - want); d > 2e-3*float64(world)*(1+math.Abs(want)) {
					t.Fatalf("cfg %+v rank %d tensor %d[%d]: %g vs %g (beyond fp16 tolerance)",
						cfg, r, i, j, got, want)
				}
			}
		}
	}
}

// Every algorithm the dispatch can resolve must carry the binary16
// wire correctly, including the hierarchical compositions.
func TestFP16WireAllAlgorithms(t *testing.T) {
	ring := Default()
	rd := Default()
	rd.Algorithm = netmodel.AlgRecursiveDoubling
	rab := Default()
	rab.Algorithm = netmodel.AlgRabenseifner
	twoLevel := Default()
	twoLevel.Algorithm = netmodel.AlgHierTwoLevel
	hier := Default()
	hier.Hierarchical = true

	testAllreduceGradsFP16WithConfig(t, ring, 4)
	testAllreduceGradsFP16WithConfig(t, rd, 5)
	testAllreduceGradsFP16WithConfig(t, rab, 6)
	testAllreduceGradsFP16WithConfig(t, twoLevel, 12)
	testAllreduceGradsFP16WithConfig(t, hier, 12)
}

// Tiny fusion thresholds force many wire buffers per step; the
// compressed path must replay the same plan as fp32 and stay correct.
func TestFP16WireTinyFusionBuffers(t *testing.T) {
	cfg := Default()
	cfg.FusionThreshold = 64
	testAllreduceGradsFP16WithConfig(t, cfg, 3)
}
