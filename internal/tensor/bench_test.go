package tensor

import (
	"math/rand"
	"testing"
)

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{32, 128} {
		b.Run(itoa(n), func(b *testing.B) {
			x := Randn(rng, 1, n, n)
			y := Randn(rng, 1, n, n)
			out := New(n, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(out, x, y, false)
			}
			b.SetBytes(int64(8 * n * n))
		})
	}
}

func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := Randn(rng, 1, 4, 16, 24, 24)
	w := Randn(rng, 0.5, 16, 16, 3, 3)
	spec := ConvSpec{Pad: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DWS(x, w, spec, nil)
	}
}

func BenchmarkAtrousConv2D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := Randn(rng, 1, 4, 16, 24, 24)
	w := Randn(rng, 0.5, 16, 16, 3, 3)
	spec := ConvSpec{Pad: 6, Dilation: 6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DWS(x, w, spec, nil)
	}
}

func BenchmarkConv2DBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := Randn(rng, 1, 4, 16, 24, 24)
	w := Randn(rng, 0.5, 16, 16, 3, 3)
	spec := ConvSpec{Pad: 1}
	dout := Randn(rng, 1, 4, 16, 24, 24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Conv2DBackwardWS(x, w, dout, spec, nil)
	}
}

func BenchmarkBilinearResize(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := Randn(rng, 1, 4, 16, 12, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BilinearResizeWS(x, 24, 24, nil)
	}
}

func BenchmarkSoftmaxCrossEntropy(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	logits := Randn(rng, 1, 4, 21, 24, 24)
	labels := make([]int32, 4*24*24)
	for i := range labels {
		labels[i] = int32(i % 21)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SoftmaxCrossEntropyWS(logits, labels, 255, nil)
	}
}

func itoa(n int) string {
	if n == 32 {
		return "32x32"
	}
	return "128x128"
}

// BenchmarkConvLowering times each lowering's forward and backward at
// the default model's shapes and the trainer's batch of 4: the
// deep-block depthwise and pointwise convs (24 channels at 6×6) and a
// decoder 3×3 (24 channels at 12×12).
func BenchmarkConvLowering(b *testing.B) {
	for _, tc := range []struct {
		name       string
		c, h, f, k int
		spec       ConvSpec
	}{
		{"depthwise", 24, 6, 24, 3, ConvSpec{Pad: 2, Dilation: 2, Groups: 24}},
		{"pointwise", 24, 6, 24, 1, ConvSpec{}},
		{"dense", 24, 12, 24, 3, ConvSpec{Pad: 1}},
	} {
		x, w, dout, s := convCase(1, 4, tc.c, tc.h, tc.h, tc.f, tc.k, tc.spec)
		ws := NewWorkspace()
		b.Run(tc.name+"/fwd", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ws.Reset()
				Conv2DWS(x, w, s, ws)
			}
		})
		b.Run(tc.name+"/bwd", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ws.Reset()
				Conv2DBackwardWS(x, w, dout, s, ws)
			}
		})
	}
}

// BenchmarkGEMM times the three GEMM products at the default model's
// decoder 3×3 conv (24 filters × 24·3·3 taps × 12·12 pixels: forward
// A·B, weight-gradient A·Bᵀ, input-gradient Aᵀ·B) and at the DeepLab
// head's forward GEMM, reporting GFLOP/s. Run it at -cpu 1 to time one
// worker's kernel.
func BenchmarkGEMM(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name    string
		mul     func(c, a, b *Tensor, accumulate bool)
		m, k, n int
		a, bb   [2]int
	}{
		{"fwd_24x270x144", MatMulInto, 24, 270, 144, [2]int{24, 270}, [2]int{270, 144}},
		{"dW_24x144x270", MatMulBTInto, 24, 144, 270, [2]int{24, 144}, [2]int{270, 144}},
		{"dx_270x24x144", MatMulATInto, 270, 24, 144, [2]int{24, 270}, [2]int{24, 144}},
		{"head_256x2304x1089", MatMulInto, 256, 2304, 1089, [2]int{256, 2304}, [2]int{2304, 1089}},
	} {
		a := randTensor(rng, tc.a[:]...)
		bm := randTensor(rng, tc.bb[:]...)
		c := New(tc.m, tc.n)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.mul(c, a, bm, false)
			}
			flops := 2 * float64(tc.m*tc.k*tc.n) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
