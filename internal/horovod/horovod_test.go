package horovod

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"segscale/internal/netmodel"
	"segscale/internal/nn"
	"segscale/internal/tensor"
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

// newRuntime is the test-side shorthand for the error-returning
// constructor: inside runWorld rank goroutines a panic is the
// failure channel (re-raised on the test goroutine by World.Run).
func newRuntime(c *transport.Comm, mach topology.Machine, cfg Config) *Runtime {
	rt, err := NewRuntime(c, mach, cfg)
	if err != nil {
		panic(err)
	}
	return rt
}

func TestDefaultConfig(t *testing.T) {
	c := Default()
	if c.FusionThreshold != 64<<20 {
		t.Errorf("default fusion threshold %d", c.FusionThreshold)
	}
	if c.CycleTime != 5*time.Millisecond {
		t.Errorf("default cycle time %v", c.CycleTime)
	}
	if c.Hierarchical || c.ResponseCache {
		t.Error("defaults should be flat, uncached")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	c := Default()
	c.CycleTime = 0
	if c.Validate() == nil {
		t.Error("zero cycle time accepted")
	}
	c = Default()
	c.FusionThreshold = -1
	if c.Validate() == nil {
		t.Error("negative threshold accepted")
	}
}

func TestEnvRoundTrip(t *testing.T) {
	c := Default()
	c.FusionThreshold = 128 << 20
	c.CycleTime = 3500 * time.Microsecond
	c.Hierarchical = true
	c.ResponseCache = true
	env := c.Env()
	d := Default()
	if err := d.ApplyEnv(env); err != nil {
		t.Fatal(err)
	}
	if d.FusionThreshold != c.FusionThreshold || d.CycleTime != c.CycleTime ||
		d.Hierarchical != c.Hierarchical || d.ResponseCache != c.ResponseCache {
		t.Fatalf("round trip: %+v vs %+v", d, c)
	}
}

func TestApplyEnvErrors(t *testing.T) {
	c := Default()
	for _, bad := range []string{"NOEQ", "HOROVOD_CYCLE_TIME=zero", "HOROVOD_CYCLE_TIME=-1", "HOROVOD_FUSION_THRESHOLD=x", "HOROVOD_CACHE_CAPACITY=-2"} {
		if err := c.ApplyEnv([]string{bad}); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if err := c.ApplyEnv([]string{"UNRELATED=1"}); err != nil {
		t.Errorf("unknown var rejected: %v", err)
	}
}

func TestResolveAlgorithm(t *testing.T) {
	c := Default()
	if c.ResolveAlgorithm() != netmodel.AlgAuto {
		t.Error("default should defer to the library (auto)")
	}
	c.Hierarchical = true
	if c.ResolveAlgorithm() != netmodel.AlgHierLeader {
		t.Error("hierarchical should resolve to the leader variant")
	}
}

func TestPlanFusionBasic(t *testing.T) {
	sizes := []int{10, 10, 10, 10}
	groups := PlanFusion(sizes, 25)
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 2 {
		t.Fatalf("groups = %v", groups)
	}
}

func TestPlanFusionOversizedTensor(t *testing.T) {
	groups := PlanFusion([]int{100, 5, 5}, 20)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	if len(groups[0]) != 1 || groups[0][0] != 0 {
		t.Fatalf("oversized tensor not isolated: %v", groups)
	}
}

func TestPlanFusionDisabled(t *testing.T) {
	groups := PlanFusion([]int{1, 2, 3}, 0)
	if len(groups) != 3 {
		t.Fatalf("fusion disabled should yield singletons: %v", groups)
	}
}

// A group whose running total reaches the threshold exactly is closed
// there: a later tensor, even a zero-byte one, opens the next group.
// (Horovod's coordinator would still admit a zero-byte tensor to a
// full buffer; the two rules differ only there, and such a tensor
// moves no bytes either way.)
func TestPlanFusionClosesAtThreshold(t *testing.T) {
	groups := PlanFusion([]int{4, 4, 0, 4}, 8)
	if want := [][]int{{0, 1}, {2, 3}}; !reflect.DeepEqual(groups, want) {
		t.Fatalf("groups = %v, want %v", groups, want)
	}
}

// A zero-size tensor is legal — a layer may own an empty parameter —
// and is planned like any other, taking no room in its group.
func TestPlanFusionZeroSizeTensor(t *testing.T) {
	groups := PlanFusion([]int{0, 4, 0}, 8)
	if want := [][]int{{0, 1, 2}}; !reflect.DeepEqual(groups, want) {
		t.Fatalf("groups = %v, want %v", groups, want)
	}
}

// The binary16 wire buffer is sized to the plan's largest group when
// the plan is made, and a step then reuses it: groups growing through a
// step (4, 40, 8 then 100 elements here) never regrow it. The float32
// wire reduces the gradient arena in place and never allocates one.
func TestFusionBufferSizedOncePerPlan(t *testing.T) {
	shapes := []int{4, 40, 8, 100}
	for _, fp16 := range []bool{false, true} {
		cfg := Default()
		cfg.FusionThreshold = 64 // bytes: one tensor per group
		cfg.FP16Compression = fp16
		err := runWorld(2, func(c *transport.Comm) error {
			rt := newRuntime(c, topology.ForGPUs(2), cfg)
			ps := makeParams(c.Rank(), shapes)
			rt.fusionPlan(ps)
			if !fp16 {
				for step := 0; step < 2; step++ {
					if err := rt.AllreduceGrads(ps); err != nil {
						return err
					}
				}
				if rt.fused16 != nil {
					return fmt.Errorf("float32 wire allocated a %d-word wire buffer", cap(rt.fused16))
				}
				return nil
			}
			if cap(rt.fused16) == 0 {
				return fmt.Errorf("planning left the binary16 buffer unallocated")
			}
			planned, base := cap(rt.fused16), &rt.fused16[:1][0]
			if planned != 100 {
				return fmt.Errorf("planned buffer holds %d elements, want the largest group's 100", planned)
			}
			for step := 0; step < 2; step++ {
				if err := rt.AllreduceGrads(ps); err != nil {
					return err
				}
				if n, b := cap(rt.fused16), &rt.fused16[:1][0]; n != planned || b != base {
					return fmt.Errorf("step %d: buffer regrown to %d elements", step, n)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPlanFusionNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative size accepted")
		}
	}()
	PlanFusion([]int{-1}, 10)
}

// Properties: groups cover all indices exactly once, in order, and no
// multi-tensor group exceeds the threshold.
func TestPropertyPlanFusion(t *testing.T) {
	f := func(raw []uint16, th uint32) bool {
		sizes := make([]int, len(raw))
		for i, r := range raw {
			sizes[i] = int(r)
		}
		threshold := int(th % 5000)
		groups := PlanFusion(sizes, threshold)
		next := 0
		for _, g := range groups {
			if len(g) == 0 {
				return false
			}
			for _, i := range g {
				if i != next {
					return false
				}
				next++
			}
			if threshold > 0 && len(g) > 1 && GroupBytes(sizes, g) > threshold {
				return false
			}
		}
		return next == len(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// makeParams builds identical-shape params, their gradients laid out
// in one arena, with rank-dependent grads.
func makeParams(rank int, shapes []int) []*nn.Param {
	var out []*nn.Param
	for i, n := range shapes {
		out = append(out, &nn.Param{Name: string(rune('a' + i)), W: tensor.New(n)})
	}
	nn.LayOutGrads(out)
	rng := rand.New(rand.NewSource(int64(rank) + 100))
	for _, p := range out {
		for j := range p.G.Data {
			p.G.Data[j] = float32(rng.NormFloat64())
		}
	}
	return out
}

func testAllreduceGradsWithConfig(t *testing.T, cfg Config, world int) {
	t.Helper()
	shapes := []int{7, 129, 3, 64, 1}
	// Expected average.
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
				if d := math.Abs(float64(results[r][i][j] - expect[i][j])); d > 1e-4 {
					t.Fatalf("cfg %+v rank %d tensor %d[%d]: %g vs %g", cfg, r, i, j, results[r][i][j], expect[i][j])
				}
			}
		}
	}
}

func TestAllreduceGradsAverages(t *testing.T) {
	testAllreduceGradsWithConfig(t, Default(), 4)
}

func TestAllreduceGradsTinyFusionBuffers(t *testing.T) {
	cfg := Default()
	cfg.FusionThreshold = 64 // bytes → many groups
	testAllreduceGradsWithConfig(t, cfg, 3)
}

func TestAllreduceGradsNoFusion(t *testing.T) {
	cfg := Default()
	cfg.FusionThreshold = 0
	testAllreduceGradsWithConfig(t, cfg, 2)
}

func TestAllreduceGradsHierarchical(t *testing.T) {
	cfg := Default()
	cfg.Hierarchical = true
	testAllreduceGradsWithConfig(t, cfg, 6) // one full node
	testAllreduceGradsWithConfig(t, cfg, 12)
}

func TestAllreduceGradsRecursiveDoubling(t *testing.T) {
	cfg := Default()
	cfg.Algorithm = netmodel.AlgRecursiveDoubling
	testAllreduceGradsWithConfig(t, cfg, 5)
}

func TestAllreduceGradsFP16Compression(t *testing.T) {
	// With compression the averages must agree within binary16
	// precision (~2⁻¹⁰ relative).
	world := 3
	shapes := []int{64, 7}
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
	cfg := Default()
	cfg.FP16Compression = true
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
				if d := math.Abs(got - want); d > 2e-3*(1+math.Abs(want)) {
					t.Fatalf("rank %d tensor %d[%d]: %g vs %g (beyond fp16 tolerance)", r, i, j, got, want)
				}
			}
		}
	}
}

func TestSingleRankNoop(t *testing.T) {
	err := runWorld(1, func(c *transport.Comm) error {
		rt := newRuntime(c, topology.ForGPUs(1), Default())
		ps := makeParams(0, []int{4})
		orig := append([]float32(nil), ps[0].G.Data...)
		if err := rt.AllreduceGrads(ps); err != nil {
			return err
		}
		for i := range orig {
			if ps[0].G.Data[i] != orig[i] {
				t.Error("single-rank allreduce changed gradients")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastParams(t *testing.T) {
	world := 4
	mach := topology.ForGPUs(world)
	results := make([][]float32, world)
	err := runWorld(world, func(c *transport.Comm) error {
		rt := newRuntime(c, mach, Default())
		w := tensor.New(16)
		for i := range w.Data {
			w.Data[i] = float32(c.Rank()*100 + i)
		}
		ps := []*nn.Param{{Name: "w", W: w}}
		nn.LayOutGrads(ps)
		if err := rt.BroadcastParams(ps); err != nil {
			return err
		}
		results[c.Rank()] = append([]float32(nil), w.Data...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < world; r++ {
		for i := range results[0] {
			if results[r][i] != results[0][i] {
				t.Fatalf("rank %d differs after broadcast", r)
			}
		}
		if results[r][3] != 3 { // rank 0's values
			t.Fatalf("broadcast did not come from rank 0: %v", results[r][:4])
		}
	}
}

func TestAllreduceScalarAndCounts(t *testing.T) {
	world := 3
	mach := topology.ForGPUs(world)
	scalars := make([]float64, world)
	counts := make([][]int64, world)
	err := runWorld(world, func(c *transport.Comm) error {
		rt := newRuntime(c, mach, Default())
		mean, err := rt.AllreduceScalar(float64(c.Rank() + 1))
		if err != nil {
			return err
		}
		scalars[c.Rank()] = mean
		cnt := []int64{int64(c.Rank()), 10}
		if err := rt.AllreduceCounts(cnt); err != nil {
			return err
		}
		counts[c.Rank()] = cnt
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < world; r++ {
		if math.Abs(scalars[r]-2) > 1e-6 { // mean of 1,2,3
			t.Fatalf("scalar mean %g", scalars[r])
		}
		if counts[r][0] != 3 || counts[r][1] != 30 {
			t.Fatalf("counts %v", counts[r])
		}
	}
}

func TestBroadcast(t *testing.T) {
	world := 4
	mach := topology.ForGPUs(world)
	bcast := make([][]float32, world)
	err := runWorld(world, func(c *transport.Comm) error {
		rt := newRuntime(c, mach, Default())
		buf := []float32{float32(c.Rank() + 100)}
		if err := rt.Broadcast(buf); err != nil {
			return err
		}
		bcast[c.Rank()] = buf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < world; r++ {
		if bcast[r][0] != 100 {
			t.Fatalf("rank %d broadcast got %v, want rank 0's 100", r, bcast[r])
		}
	}
}

func TestRuntimeWorldMismatchErrors(t *testing.T) {
	err := runWorld(2, func(c *transport.Comm) error {
		if _, err := NewRuntime(c, topology.ForGPUs(6), Default()); err == nil {
			t.Error("mismatched machine accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeBadConfigErrors(t *testing.T) {
	err := runWorld(1, func(c *transport.Comm) error {
		cfg := Default()
		cfg.CycleTime = 0
		if _, err := NewRuntime(c, topology.ForGPUs(1), cfg); err == nil {
			t.Error("invalid config accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
