package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfusionPerfectPrediction(t *testing.T) {
	c := NewConfusion(3)
	gt := []int32{0, 1, 2, 1, 0}
	c.Update(gt, gt, 255)
	if c.MeanIOU() != 1 || c.PixelAccuracy() != 1 {
		t.Fatalf("perfect prediction: mIOU=%g acc=%g", c.MeanIOU(), c.PixelAccuracy())
	}
	if c.Total() != 5 {
		t.Fatalf("total %d", c.Total())
	}
}

func TestConfusionKnownIOU(t *testing.T) {
	// Class 0: tp=2, fn=1 (gt 0 → pred 1), fp=1 (gt 1 → pred 0).
	c := NewConfusion(2)
	c.Update([]int32{0, 0, 0, 1, 1}, []int32{0, 0, 1, 0, 1}, 255)
	iou0, ok := c.IOU(0)
	if !ok || math.Abs(iou0-0.5) > 1e-12 {
		t.Fatalf("IOU(0) = %g, want 0.5", iou0)
	}
	// Class 1: tp=1, fn=1, fp=1 → 1/3.
	iou1, _ := c.IOU(1)
	if math.Abs(iou1-1.0/3) > 1e-12 {
		t.Fatalf("IOU(1) = %g, want 1/3", iou1)
	}
	want := (0.5 + 1.0/3) / 2
	if math.Abs(c.MeanIOU()-want) > 1e-12 {
		t.Fatalf("mIOU = %g, want %g", c.MeanIOU(), want)
	}
	if math.Abs(c.PixelAccuracy()-0.6) > 1e-12 {
		t.Fatalf("acc = %g", c.PixelAccuracy())
	}
}

func TestConfusionIgnoreLabel(t *testing.T) {
	c := NewConfusion(2)
	c.Update([]int32{255, 0, 255}, []int32{1, 0, 0}, 255)
	if c.Total() != 1 {
		t.Fatalf("ignored pixels counted: total %d", c.Total())
	}
	if c.PixelAccuracy() != 1 {
		t.Fatal("remaining pixel should be correct")
	}
}

func TestConfusionAbsentClassExcluded(t *testing.T) {
	c := NewConfusion(5)
	c.Update([]int32{0, 0}, []int32{0, 0}, 255)
	if c.MeanIOU() != 1 {
		t.Fatalf("mIOU with one present class = %g", c.MeanIOU())
	}
	if _, ok := c.IOU(4); ok {
		t.Fatal("absent class reported present")
	}
}

func TestFreqWeightedIOU(t *testing.T) {
	// Perfect prediction → fwIOU 1.
	c := NewConfusion(3)
	c.Update([]int32{0, 0, 0, 1}, []int32{0, 0, 0, 1}, 255)
	if c.FreqWeightedIOU() != 1 {
		t.Fatalf("perfect fwIOU = %g", c.FreqWeightedIOU())
	}
	// Class 0 (3 of 4 pixels) perfect, class 1 (1 of 4) wrong:
	// fwIOU = 0.75·IOU₀ + 0.25·0. IOU₀ = 3/(3+1 fp)=0.75 → 0.5625.
	d := NewConfusion(3)
	d.Update([]int32{0, 0, 0, 1}, []int32{0, 0, 0, 0}, 255)
	if math.Abs(d.FreqWeightedIOU()-0.5625) > 1e-12 {
		t.Fatalf("fwIOU = %g, want 0.5625", d.FreqWeightedIOU())
	}
	if NewConfusion(2).FreqWeightedIOU() != 0 {
		t.Fatal("empty fwIOU should be 0")
	}
}

func TestConfusionMerge(t *testing.T) {
	a, b := NewConfusion(2), NewConfusion(2)
	a.Update([]int32{0}, []int32{0}, 255)
	b.Update([]int32{1}, []int32{0}, 255)
	a.Merge(b)
	if a.Total() != 2 {
		t.Fatalf("merged total %d", a.Total())
	}
	if a.PixelAccuracy() != 0.5 {
		t.Fatalf("merged accuracy %g", a.PixelAccuracy())
	}
}

func TestConfusionValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewConfusion(0) },
		func() { NewConfusion(2).Update([]int32{0}, []int32{}, 255) },
		func() { NewConfusion(2).Update([]int32{0}, []int32{5}, 255) },
		func() { NewConfusion(2).Merge(NewConfusion(3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid confusion use accepted")
				}
			}()
			f()
		}()
	}
}

func TestScalingEfficiencyAndSpeedup(t *testing.T) {
	// Paper: 6.7 img/s × 132 GPUs at 92% efficiency → ~813 img/s.
	eff := ScalingEfficiency(6.7, 6.7*132*0.92, 132)
	if math.Abs(eff-0.92) > 1e-12 {
		t.Fatalf("efficiency = %g", eff)
	}
	// Efficiency times the worker count is the speedup.
	if s := 2 * ScalingEfficiency(100, 130, 2); math.Abs(s-1.3) > 1e-12 {
		t.Fatalf("speedup = %g", s)
	}
}

func TestStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("mean %g", Mean(xs))
	}
	if Mean(nil) != 0 {
		t.Fatal("empty-input mean should be 0")
	}
}

// Property: mIOU and pixel accuracy always land in [0,1], and a
// perfect prediction dominates any corrupted copy of it.
func TestPropertyMetricBounds(t *testing.T) {
	f := func(labels []uint8, flips uint8) bool {
		if len(labels) == 0 {
			return true
		}
		k := 4
		gt := make([]int32, len(labels))
		pred := make([]int32, len(labels))
		for i, l := range labels {
			gt[i] = int32(l) % int32(k)
			pred[i] = gt[i]
		}
		// Corrupt some predictions.
		for i := 0; i < int(flips)%len(labels); i++ {
			pred[i] = (pred[i] + 1) % int32(k)
		}
		c := NewConfusion(k)
		c.Update(gt, pred, 255)
		m, a := c.MeanIOU(), c.PixelAccuracy()
		return m >= 0 && m <= 1 && a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
