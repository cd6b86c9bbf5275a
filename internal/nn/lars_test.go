package nn

import (
	"math"
	"math/rand"
	"testing"

	"segscale/internal/tensor"
)

func TestLARSTrustRatio(t *testing.T) {
	p := testParam("w", tensor.FromSlice([]float32{3, 4}, 2), true) // ‖w‖=5
	p.G.Data[0] = 0.6
	p.G.Data[1] = 0.8 // ‖g‖=1
	o := NewLARS(0.1)
	o.WeightDecay = 0
	ratio := o.TrustRatio(p)
	want := 0.001 * 5 / 1
	if math.Abs(ratio-want) > 1e-6 {
		t.Fatalf("trust ratio %g, want %g", ratio, want)
	}
}

func TestLARSStepDirection(t *testing.T) {
	p := testParam("w", tensor.FromSlice([]float32{1, 1}, 2), true)
	p.G.Data[0] = 1
	p.G.Data[1] = -1
	o := NewLARS(1)
	before := append([]float32(nil), p.W.Data...)
	o.Step([]*Param{p})
	if !(p.W.Data[0] < before[0]) || !(p.W.Data[1] > before[1]) {
		t.Fatalf("LARS moved against the gradient: %v → %v", before, p.W.Data)
	}
}

func TestLARSScaleInvariantToGradientMagnitude(t *testing.T) {
	// The defining LARS property: scaling the gradient by a large
	// constant barely changes the update size (the local rate divides
	// it back out), unlike SGD.
	mk := func(gscale float32) float64 {
		p := testParam("w", tensor.FromSlice([]float32{3, 4}, 2), true)
		p.G.Data[0] = 0.6 * gscale
		p.G.Data[1] = 0.8 * gscale
		o := NewLARS(1)
		o.WeightDecay = 0
		before := append([]float32(nil), p.W.Data...)
		o.Step([]*Param{p})
		d0 := float64(p.W.Data[0] - before[0])
		d1 := float64(p.W.Data[1] - before[1])
		return math.Sqrt(d0*d0 + d1*d1)
	}
	small, big := mk(1), mk(1000)
	if math.Abs(big-small)/small > 0.01 {
		t.Fatalf("update magnitude not gradient-scale invariant: %g vs %g", small, big)
	}
}

func TestLARSNoDecayParamsUsePlainSGD(t *testing.T) {
	p := testParam("bn.gamma", tensor.FromSlice([]float32{1}, 1), false)
	p.G.Data[0] = 1
	o := NewLARS(0.1)
	o.Step([]*Param{p})
	// Plain momentum SGD: w = 1 − 0.1·1.
	if math.Abs(float64(p.W.Data[0])-0.9) > 1e-6 {
		t.Fatalf("no-decay param got adaptive rate: %v", p.W.Data[0])
	}
}

func TestLARSMomentumAccumulates(t *testing.T) {
	p := testParam("w", tensor.FromSlice([]float32{1}, 1), false)
	o := NewLARS(0.1)
	p.G.Data[0] = 1
	o.Step([]*Param{p})
	first := 1 - p.W.Data[0]
	p.G.Data[0] = 1
	prev := p.W.Data[0]
	o.Step([]*Param{p})
	second := prev - p.W.Data[0]
	if second <= first {
		t.Fatalf("momentum inactive: steps %g then %g", first, second)
	}
}

func TestLARSZeroWeightSafe(t *testing.T) {
	p := testParam("w", tensor.New(2), true) // ‖w‖=0
	p.G.Data[0] = 1
	o := NewLARS(0.5)
	o.Step([]*Param{p}) // must not NaN
	for _, v := range p.W.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("NaN after zero-norm step")
		}
	}
}

func TestOptimizerInterface(t *testing.T) {
	var opts = []Optimizer{NewSGD(0.1), NewLARS(0.1)}
	for _, o := range opts {
		o.SetLR(0.25)
	}
	if NewSGD(0.1).LR != 0.1 {
		t.Fatal("constructor LR wrong")
	}
}

func TestGlobalGradClip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := testParam("w", tensor.Randn(rng, 1, 100), true)
	for i := range p.G.Data {
		p.G.Data[i] = 1 // norm 10
	}
	pre := GlobalGradClip([]*Param{p}, 5)
	if math.Abs(pre-10) > 1e-5 {
		t.Fatalf("pre-clip norm %g", pre)
	}
	if post := GradNorm([]*Param{p}); math.Abs(post-5) > 1e-3 {
		t.Fatalf("post-clip norm %g", post)
	}
	// Below the cap: untouched.
	before := append([]float32(nil), p.G.Data...)
	GlobalGradClip([]*Param{p}, 100)
	for i := range before {
		if p.G.Data[i] != before[i] {
			t.Fatal("clip modified in-range gradients")
		}
	}
}
