package nn

import (
	"math"
	"math/rand"
	"testing"

	"segscale/internal/tensor"
)

// lossOf runs a forward pass and reduces with a fixed random mask so
// the scalar loss has nontrivial gradients everywhere.
func lossOf(l Layer, x, mask *tensor.Tensor, train bool) float64 {
	out := l.Forward(x, train)
	s := 0.0
	for i := range out.Data {
		s += float64(out.Data[i] * mask.Data[i])
	}
	return s
}

// laidOut lays out l's gradients in one arena, as a model constructor
// does, and returns l.
func laidOut[L Layer](l L) L {
	LayOutGrads(l.Params())
	return l
}

// testParam is newParam with its gradient laid out.
func testParam(name string, w *tensor.Tensor, decay bool) *Param {
	p := newParam(name, w, decay)
	LayOutGrads([]*Param{p})
	return p
}

func checkLayerGradients(t *testing.T, name string, l Layer, x *tensor.Tensor, train bool, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	out := l.Forward(x, train)
	mask := tensor.Randn(rng, 1, out.Shape...)
	// Analytic gradients, into zeroed gradients laid out as a model
	// constructor lays them out.
	LayOutGrads(l.Params())
	l.Forward(x, train)
	dx := l.Backward(mask)

	numGrad := func(data []float32, i int) float64 {
		const eps = 1e-2
		orig := data[i]
		data[i] = orig + eps
		up := lossOf(l, x, mask, train)
		data[i] = orig - eps
		down := lossOf(l, x, mask, train)
		data[i] = orig
		return (up - down) / (2 * eps)
	}

	for _, p := range l.Params() {
		idxs := []int{0, p.W.Len() / 2, p.W.Len() - 1}
		for _, i := range idxs {
			want := numGrad(p.W.Data, i)
			if d := math.Abs(float64(p.G.Data[i]) - want); d > tol {
				t.Errorf("%s: %s grad[%d] = %g, numerical %g", name, p.Name, i, p.G.Data[i], want)
			}
		}
	}
	for _, i := range []int{0, x.Len() / 3, x.Len() - 1} {
		want := numGrad(x.Data, i)
		if d := math.Abs(float64(dx.Data[i]) - want); d > tol {
			t.Errorf("%s: dx[%d] = %g, numerical %g", name, i, dx.Data[i], want)
		}
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, 2, 3, 5, 5)
	conv := NewConv2D(rng, "c", 3, 4, 3, tensor.ConvSpec{Pad: 1}, true)
	checkLayerGradients(t, "conv+bias", conv, x, true, 3e-2)
}

func TestAtrousConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.Randn(rng, 1, 1, 2, 9, 9)
	conv := NewConv2D(rng, "a", 2, 2, 3, tensor.ConvSpec{Pad: 2, Dilation: 2}, false)
	checkLayerGradients(t, "atrous", conv, x, true, 3e-2)
}

func TestDepthwiseConvGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.Randn(rng, 1, 1, 4, 6, 6)
	conv := NewConv2D(rng, "dw", 4, 4, 3, tensor.ConvSpec{Pad: 1, Groups: 4}, false)
	checkLayerGradients(t, "depthwise", conv, x, true, 3e-2)
}

func TestConvGroupMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	defer func() {
		if recover() == nil {
			t.Error("bad groups accepted")
		}
	}()
	NewConv2D(rng, "bad", 3, 4, 3, tensor.ConvSpec{Groups: 2}, false)
}

func TestBatchNormForwardNormalises(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(rng, 3, 4, 2, 6, 6)
	// Shift one channel far away to prove per-channel handling.
	for i := 0; i < 6*6; i++ {
		x.Data[i] += 50
	}
	bn := laidOut(NewBatchNorm2D("bn", 2))
	out := bn.Forward(x, true)
	// Each channel of the output should be ~N(0,1) (gamma=1, beta=0).
	for ch := 0; ch < 2; ch++ {
		var s, s2 float64
		cnt := 0
		for i := 0; i < 4; i++ {
			for j := 0; j < 36; j++ {
				v := float64(out.At(i, ch, j/6, j%6))
				s += v
				s2 += v * v
				cnt++
			}
		}
		mean := s / float64(cnt)
		variance := s2/float64(cnt) - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Errorf("channel %d: mean %g var %g", ch, mean, variance)
		}
	}
}

func TestBatchNormGradientsTrainMode(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := tensor.Randn(rng, 1, 2, 2, 4, 4)
	bn := laidOut(NewBatchNorm2D("bn", 2))
	// Non-trivial gamma/beta.
	bn.gamma.W.Data[0] = 1.5
	bn.beta.W.Data[1] = -0.3
	checkLayerGradients(t, "batchnorm-train", bn, x, true, 3e-2)
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bn := laidOut(NewBatchNorm2D("bn", 2))
	// Train on a few batches to move running stats.
	for i := 0; i < 20; i++ {
		x := tensor.Randn(rng, 1, 2, 2, 4, 4)
		for j := range x.Data {
			x.Data[j] += 3
		}
		bn.Forward(x, true)
	}
	if bn.RunningMean[0] < 1 {
		t.Fatalf("running mean did not move: %v", bn.RunningMean)
	}
	// Eval output must not depend on batch composition.
	x1 := tensor.Randn(rng, 1, 1, 2, 4, 4)
	out1 := bn.Forward(x1, false)
	big := tensor.New(2, 2, 4, 4)
	copy(big.Data[:x1.Len()], x1.Data)
	out2 := bn.Forward(big, false)
	for i := range out1.Data {
		if math.Abs(float64(out1.Data[i]-out2.Data[i])) > 1e-6 {
			t.Fatal("eval-mode output depends on batch")
		}
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	x := tensor.FromSlice([]float32{-1, 2, -3, 4}, 1, 1, 2, 2)
	out := r.Forward(x, true)
	if out.Data[0] != 0 || out.Data[1] != 2 || out.Data[3] != 4 {
		t.Fatalf("relu fwd %v", out.Data)
	}
	dx := r.Backward(tensor.Full(1, 1, 1, 2, 2))
	if dx.Data[0] != 0 || dx.Data[1] != 1 || dx.Data[2] != 0 || dx.Data[3] != 1 {
		t.Fatalf("relu bwd %v", dx.Data)
	}
}

func TestDropoutTrainEvalBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := &Dropout2D{P: 0.5, Rng: rng}
	x := tensor.Full(1, 4, 64, 2, 2)
	// Eval: identity.
	if out := d.Forward(x, false); out != x {
		t.Error("eval dropout should pass through")
	}
	// Train: survivors scaled by 2, expectation preserved (~50% kept).
	out := d.Forward(x, true)
	kept := 0
	for i := 0; i < 4*64; i++ {
		v := out.Data[i*4]
		switch v {
		case 0:
		case 2:
			kept++
		default:
			t.Fatalf("unexpected dropout value %v", v)
		}
	}
	if kept < 4*64/4 || kept > 4*64*3/4 {
		t.Errorf("kept %d of %d channels with P=0.5", kept, 4*64)
	}
	// Backward matches the kept mask.
	dx := d.Backward(tensor.Full(1, 4, 64, 2, 2))
	for i := 0; i < 4*64; i++ {
		fwd := out.Data[i*4]
		bwd := dx.Data[i*4]
		if (fwd == 0) != (bwd == 0) {
			t.Fatal("dropout backward mask mismatch")
		}
	}
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.Randn(rng, 1, 1, 2, 6, 6)
	net := NewSequential(
		NewConv2D(rng, "c1", 2, 3, 3, tensor.ConvSpec{Pad: 1}, false),
		NewBatchNorm2D("bn1", 3),
		&ReLU{},
		NewConv2D(rng, "c2", 3, 2, 3, tensor.ConvSpec{Pad: 1}, true),
	)
	if got := len(net.Params()); got != 5 {
		t.Fatalf("param tensors = %d, want 5", got)
	}
	checkLayerGradients(t, "sequential", net, x, true, 5e-2)
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := tensor.Randn(rng, 1, 2, 3, 4, 4)
	b := tensor.Randn(rng, 1, 2, 1, 4, 4)
	c := tensor.Randn(rng, 1, 2, 2, 4, 4)
	cat := ConcatChannelsWS(nil, a, b, c)
	if cat.Dim(1) != 6 {
		t.Fatalf("concat channels %d", cat.Dim(1))
	}
	parts := SplitChannelsWS(cat, []int{3, 1, 2}, nil)
	for i, want := range []*tensor.Tensor{a, b, c} {
		got := parts[i]
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("part %d differs at %d", i, j)
			}
		}
	}
}

func TestConcatShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched concat accepted")
		}
	}()
	ConcatChannelsWS(nil, tensor.New(1, 2, 4, 4), tensor.New(1, 2, 5, 4))
}

func TestUpsampleGradientAdjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.Randn(rng, 1, 1, 2, 4, 4)
	u := &Upsample{OutH: 8, OutW: 8}
	checkLayerGradients(t, "upsample", u, x, true, 2e-2)
}

func TestSGDMomentumAndDecay(t *testing.T) {
	p := testParam("w", tensor.FromSlice([]float32{1}, 1), true)
	q := testParam("bn", tensor.FromSlice([]float32{1}, 1), false)
	opt := NewSGD(0.1)
	opt.Momentum = 0.9
	opt.WeightDecay = 0.5

	p.G.Data[0] = 1
	q.G.Data[0] = 1
	opt.Step([]*Param{p, q})
	// p: grad 1 + 0.5·1 decay = 1.5 → w = 1 − 0.1·1.5 = 0.85
	if math.Abs(float64(p.W.Data[0])-0.85) > 1e-6 {
		t.Errorf("decayed param = %v", p.W.Data[0])
	}
	// q: no decay → w = 1 − 0.1 = 0.9
	if math.Abs(float64(q.W.Data[0])-0.9) > 1e-6 {
		t.Errorf("no-decay param = %v", q.W.Data[0])
	}
	// Second identical step: velocity kicks in (v = 0.9·1.5 + 1.425).
	p.G.Data[0] = 1
	prev := p.W.Data[0]
	opt.Step([]*Param{p})
	if p.W.Data[0] >= prev-0.1 {
		t.Error("momentum did not accelerate the update")
	}
}

func TestPolyScheduleShape(t *testing.T) {
	s := NewPolySchedule(0.007, 1000, 100, 16)
	// Warmup starts near base and reaches base·world at its end.
	if lr := s.LR(0); lr < 0.007 || lr > 0.007*16 {
		t.Errorf("lr(0) = %g", lr)
	}
	if lr := s.LR(99); math.Abs(lr-0.007*16) > 1e-9 {
		t.Errorf("end of warmup lr = %g, want %g", lr, 0.007*16)
	}
	// After warmup, strictly decreasing to zero.
	prev := math.Inf(1)
	for _, step := range []int{100, 300, 600, 999} {
		lr := s.LR(step)
		if lr >= prev {
			t.Errorf("lr not decreasing at %d: %g >= %g", step, lr, prev)
		}
		prev = lr
	}
	if s.LR(1000) != 0 {
		t.Error("lr past end should be 0")
	}
}

func TestPolyScheduleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad schedule accepted")
		}
	}()
	NewPolySchedule(0.007, 0, 0, 1)
}

func TestGradNorm(t *testing.T) {
	p := testParam("w", tensor.FromSlice([]float32{0, 0}, 2), true)
	p.G.Data[0] = 3
	p.G.Data[1] = 4
	if n := GradNorm([]*Param{p}); math.Abs(n-5) > 1e-9 {
		t.Fatalf("grad norm %g", n)
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	layers := []Layer{
		laidOut(NewConv2D(rng, "c", 1, 1, 3, tensor.ConvSpec{Pad: 1}, false)),
		laidOut(NewBatchNorm2D("bn", 1)),
		&ReLU{},
	}
	for _, l := range layers {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%T backward before forward accepted", l)
				}
			}()
			l.Backward(tensor.New(1, 1, 2, 2))
		}()
	}
}

// scribbler is a pass-through layer that fills every free buffer of
// its workspace with NaN on each forward and backward, so a tensor
// released while something still reads it poisons the result.
type scribbler struct{ ws *tensor.Workspace }

func (s *scribbler) SetWorkspace(ws *tensor.Workspace) { s.ws = ws }
func (s *scribbler) Params() []*Param                  { return nil }

func (s *scribbler) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	s.scribble()
	return x
}

func (s *scribbler) Backward(d *tensor.Tensor) *tensor.Tensor {
	s.scribble()
	return d
}

// scribble fills the eight most recently released buffers of every
// capacity class up to 2^14 floats with NaN and hands them back in
// their order. A class with fewer free buffers gains one, a fresh
// buffer the miss allocated; the model would have drawn it otherwise,
// so the arena grows by at most eight buffers a class.
func (s *scribbler) scribble() {
	if s.ws == nil {
		return
	}
	nan := float32(math.NaN())
	var held [8]*tensor.Tensor
	for size := 64; size <= 1<<14; size *= 2 {
		n := 0
		for n < len(held) {
			hits := s.ws.Stats().Hits
			held[n] = s.ws.GetRaw(size)
			n++
			if s.ws.Stats().Hits == hits {
				break
			}
			for i := range held[n-1].Data {
				held[n-1].Data[i] = nan
			}
		}
		for n > 0 {
			n--
			s.ws.Put(held[n])
		}
	}
}

// TestSequentialBackwardReleasesDeadGradients holds Sequential.Backward's
// releases to the workspace contract: nothing reads a tensor after its
// Put. Scribblers between the layers poison every free buffer, so a
// gradient released before its consumer ran, the caller's dout, or a
// gradient an inactive dropout handed back unchanged — released while
// still live — turns up as NaN. The pooled net must match the heap
// path bit for bit over two steps, leave dout intact, and keep on loan
// only the gradient it returns.
func TestSequentialBackwardReleasesDeadGradients(t *testing.T) {
	build := func() *Sequential {
		rng := rand.New(rand.NewSource(12))
		return laidOut(NewSequential(
			NewConv2D(rng, "c1", 2, 4, 3, tensor.ConvSpec{Pad: 1}, false),
			&scribbler{},
			NewBatchNorm2D("bn1", 4),
			&scribbler{},
			&ReLU{},
			&scribbler{},
			&Dropout2D{}, // P = 0: hands its gradient back unchanged
			&scribbler{},
			NewSequential(
				NewConv2D(rng, "c2", 4, 3, 3, tensor.ConvSpec{Pad: 1}, true),
				&scribbler{},
				&Dropout2D{P: 0.5, Seed: 3},
			),
			&scribbler{},
			&Dropout2D{},
		))
	}
	heap, pooled := build(), build()
	ws := tensor.NewWorkspace()
	ws.SetWorkers(1)
	pooled.SetWorkspace(ws)
	rng := rand.New(rand.NewSource(13))
	x := tensor.Randn(rng, 1, 2, 2, 7, 7)
	g := tensor.Randn(rng, 1, 2, 3, 7, 7)

	for step := 0; step < 2; step++ {
		heap.Forward(x, true)
		want := heap.Backward(g)
		ws.Reset()
		pooled.Forward(x, true)
		dout := ws.GetRaw(g.Shape...)
		copy(dout.Data, g.Data)
		drawn := ws.Stats().Outstanding
		got := pooled.Backward(dout)
		requireSameBits(t, got.Data, want.Data, "dx")
		requireSameBits(t, dout.Data, g.Data, "caller's dout")
		for i, p := range pooled.Params() {
			requireSameBits(t, p.G.Data, heap.Params()[i].G.Data, p.Name+" grad")
		}
		if held := ws.Stats().Outstanding - drawn; held != 1 {
			t.Fatalf("step %d: backward left %d tensors on loan, want 1 (the gradient it returns)", step, held)
		}
	}
}

// requireSameBits fails unless got and want hold the same float32 bits.
func requireSameBits(t *testing.T, got, want []float32, label string) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %g, want %g", label, i, got[i], want[i])
		}
	}
}
