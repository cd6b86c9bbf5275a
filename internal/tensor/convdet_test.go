package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// convCase builds a small grouped/dilated conv problem.
func convCase(seed int64, n, c, h, w, f, k int, spec ConvSpec) (x, wt, dout *Tensor, s ConvSpec) {
	s = spec.Canon()
	rng := rand.New(rand.NewSource(seed))
	x = randTensor(rng, n, c, h, w)
	wt = randTensor(rng, f, c/s.Groups, k, k)
	oh := ConvOutSize(h, k, s.Stride, s.Pad, s.Dilation)
	ow := ConvOutSize(w, k, s.Stride, s.Pad, s.Dilation)
	dout = randTensor(rng, n, f, oh, ow)
	return
}

// TestConv2DBackwardMergeBitIdentical pins the deterministic dw fold:
// the parallel per-sample reduction must match the GOMAXPROCS=1 fold
// into the destination bit for bit, both must equal each sample's own
// dw summed in ascending order, and the add form must equal g plus the
// store form's dw. The old implementation appended per-worker partials
// under a mutex, so its merge order — and the low bits of dw — depended
// on goroutine scheduling. The batch-1 and batch-2 rows are the one-worker
// fold's regimes: at batch 1 the add form adds straight into g, at
// batch 2 it folds into one weight-sized sum first.
func TestConv2DBackwardMergeBitIdentical(t *testing.T) {
	cases := []struct {
		name             string
		n, c, h, w, f, k int
		spec             ConvSpec
	}{
		{"plain", 5, 3, 9, 9, 4, 3, ConvSpec{Stride: 1, Pad: 1}},
		{"strided", 6, 4, 12, 12, 6, 3, ConvSpec{Stride: 2, Pad: 1}},
		{"atrous", 4, 2, 11, 11, 3, 3, ConvSpec{Stride: 1, Pad: 2, Dilation: 2}},
		{"grouped", 4, 6, 8, 8, 6, 3, ConvSpec{Stride: 1, Pad: 1, Groups: 3}},
		{"depthwise", 5, 6, 7, 7, 6, 3, ConvSpec{Stride: 1, Pad: 2, Dilation: 2, Groups: 6}},
		{"pointwise", 5, 6, 7, 7, 8, 1, ConvSpec{Groups: 2}},
		{"plain_batch1", 1, 3, 9, 9, 4, 3, ConvSpec{Stride: 1, Pad: 1}},
		{"plain_batch2", 2, 3, 9, 9, 4, 3, ConvSpec{Stride: 1, Pad: 1}},
		{"depthwise_batch1", 1, 6, 7, 7, 6, 3, ConvSpec{Stride: 2, Pad: 1, Groups: 6}},
		{"depthwise_batch2", 2, 6, 7, 7, 6, 3, ConvSpec{Stride: 2, Pad: 1, Groups: 6}},
		{"pointwise_batch1", 1, 6, 7, 7, 8, 1, ConvSpec{}},
		{"pointwise_batch2", 2, 6, 7, 7, 8, 1, ConvSpec{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, wt, dout, s := convCase(99, tc.n, tc.c, tc.h, tc.w, tc.f, tc.k, tc.spec)

			g0 := randTensor(rand.New(rand.NewSource(98)), wt.Shape...)
			gSerial, gWide := g0.Clone(), g0.Clone()
			prev := runtime.GOMAXPROCS(1)
			dxSerial, dwSerial := Conv2DBackwardWS(x, wt, dout, s, nil)
			Conv2DBackwardAccWS(x, wt, dout, gSerial, s, nil)
			oracle := sampleFold(x, wt, dout, s)
			runtime.GOMAXPROCS(4)
			dxWide, dwWide := Conv2DBackwardWS(x, wt, dout, s, nil)
			Conv2DBackwardAccWS(x, wt, dout, gWide, s, nil)
			runtime.GOMAXPROCS(prev)

			requireBitIdentical(t, dwSerial, oracle, "dw against the per-sample fold")
			requireBitIdentical(t, dwWide, dwSerial, "dw")
			requireBitIdentical(t, dxWide, dxSerial, "dx")
			requireBitIdentical(t, gWide, gSerial, "dw added into g")
			gWant := g0.Clone()
			for e, v := range dwSerial.Data {
				gWant.Data[e] += v
			}
			requireBitIdentical(t, gSerial, gWant, "dw added into g against g + dw")
		})
	}
}

// sampleFold is the weight-gradient oracle: each sample's dw from a
// batch-1 backward of its own slice, summed in ascending sample order
// in float32.
func sampleFold(x, wt, dout *Tensor, s ConvSpec) *Tensor {
	n := x.Dim(0)
	xs, ds := len(x.Data)/n, len(dout.Data)/n
	sum := New(wt.Shape...)
	for i := 0; i < n; i++ {
		xi := FromSlice(x.Data[i*xs:(i+1)*xs], 1, x.Dim(1), x.Dim(2), x.Dim(3))
		di := FromSlice(dout.Data[i*ds:(i+1)*ds], 1, dout.Dim(1), dout.Dim(2), dout.Dim(3))
		_, dw := Conv2DBackwardWS(xi, wt, di, s, nil)
		for e, v := range dw.Data {
			if i == 0 {
				sum.Data[e] = v
			} else {
				sum.Data[e] += v
			}
		}
	}
	return sum
}

// TestConv2DBackwardAccFoldsInPlace pins that at one worker the add
// form draws no per-sample partials from the arena: at batch 1 it adds
// straight into g and draws no buffer of the weight's size class, and
// at batch 2 it draws exactly one, the sum it adds into g. The shapes
// keep every other buffer (dx, im2col) out of that class.
func TestConv2DBackwardAccFoldsInPlace(t *testing.T) {
	for _, tc := range []struct {
		name             string
		c, h, f, k, want int
		spec             ConvSpec
	}{
		{"dense_batch1", 64, 4, 128, 3, 0, ConvSpec{Pad: 1}},
		{"dense_batch2", 64, 4, 128, 3, 1, ConvSpec{Pad: 1}},
		{"pointwise_batch1", 256, 2, 256, 1, 0, ConvSpec{}},
		{"pointwise_batch2", 256, 2, 256, 1, 1, ConvSpec{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			x, wt, dout, s := convCase(61, tc.want+1, tc.c, tc.h, tc.h, tc.f, tc.k, tc.spec)
			ws := NewWorkspace()
			ws.SetWorkers(1)
			g := New(wt.Shape...)
			Conv2DBackwardAccWS(x, wt, dout, g, s, ws)
			ws.Reset()
			if got := len(ws.free[wsClass(len(wt.Data))]); got != tc.want {
				t.Fatalf("arena holds %d buffers of the weight's size class (%d floats), want %d; %v",
					got, len(wt.Data), tc.want, ws.Stats())
			}
		})
	}
}

// loweredCases are one convolution per lowering: the general im2col
// path, a depthwise and a pointwise conv.
var loweredCases = []struct {
	name             string
	n, c, h, w, f, k int
	spec             ConvSpec
}{
	{"general", 3, 4, 10, 10, 5, 3, ConvSpec{Stride: 1, Pad: 1}},
	{"depthwise", 3, 6, 9, 9, 6, 3, ConvSpec{Stride: 2, Pad: 1, Groups: 6}},
	{"pointwise", 3, 6, 9, 9, 5, 1, ConvSpec{}},
}

// TestConv2DWorkspaceMatchesHeap checks the workspace-backed paths
// return bit-identical results to the plain heap paths.
func TestConv2DWorkspaceMatchesHeap(t *testing.T) {
	for i, tc := range loweredCases {
		t.Run(tc.name, func(t *testing.T) {
			x, wt, dout, s := convCase(int64(7+i), tc.n, tc.c, tc.h, tc.w, tc.f, tc.k, tc.spec)
			ws := NewWorkspace()

			out := Conv2DWS(x, wt, s, nil)
			outWS := Conv2DWS(x, wt, s, ws)
			requireBitIdentical(t, outWS, out, "forward")

			dx, dw := Conv2DBackwardWS(x, wt, dout, s, nil)
			dxWS, dwWS := Conv2DBackwardWS(x, wt, dout, s, ws)
			requireBitIdentical(t, dxWS, dx, "dx")
			requireBitIdentical(t, dwWS, dw, "dw")

			// Second pass after Reset reuses the same arena buffers.
			ws.Reset()
			outWS2 := Conv2DWS(x, wt, s, ws)
			requireBitIdentical(t, outWS2, out, "forward after reset")
			st := ws.Stats()
			if st.Hits == 0 {
				t.Fatalf("no free-list hits after reset: %v", st)
			}
		})
	}
}

// TestConv2DWorkspaceZeroAllocs pins the workspace promise: with a
// warm arena, forward and both backward forms touch the heap zero
// times on the serial path of each lowering. At GOMAXPROCS=4 a dense 3×3 conv
// (batch 2, 32 → 64 channels, 33×33) fans its samples out over
// parallelOver, and those rows count the fan-out.
func TestConv2DWorkspaceZeroAllocs(t *testing.T) {
	for i, tc := range loweredCases {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			x, wt, dout, s := convCase(int64(21+i), tc.n, tc.c, tc.h, tc.w, tc.f, tc.k, tc.spec)
			ws := NewWorkspace()

			g := New(wt.Shape...)
			pass := func() {
				Conv2DWS(x, wt, s, ws)
				Conv2DBackwardWS(x, wt, dout, s, ws)
				Conv2DBackwardAccWS(x, wt, dout, g, s, ws)
				ws.Reset()
			}
			pass() // warm the arena

			got := testing.AllocsPerRun(10, pass)
			checkAllocRow(t, got, 0, 1)
		})
	}

	x, wt, dout, s := convCase(31, 2, 32, 33, 33, 64, 3, ConvSpec{Pad: 1})
	ws := NewWorkspace()
	for _, row := range []struct {
		name string
		pin  float64
		call func()
	}{
		{"dense_fwd_mp4", 7, func() { ws.Reset(); Conv2DWS(x, wt, s, ws) }},
		{"dense_bwd_mp4", 17, func() { ws.Reset(); Conv2DBackwardWS(x, wt, dout, s, ws) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			checkAllocRow(t, mallocsPerRun(4, 10, row.call), row.pin, 4)
		})
	}
}

// budgetRun is one pass of every kernel that fans out over its
// workspace's budget; a value, so collecting it allocates nothing.
type budgetRun struct {
	out, dx, dw, dlogits, pool, dpool, up, dup *Tensor
	loss                                       float64
}

// TestWorkspaceBudgetZeroAllocs pins the rank worker budget: with
// SetWorkers(1) every kernel takes its closure-free serial branch even
// at GOMAXPROCS=4 — conv forward and backward, the loss, the argmax,
// global pooling and the bilinear resize, each with its
// backward — so a warm pass allocates nothing, and every result
// matches a workspace at the default, GOMAXPROCS-wide budget bit for
// bit.
func TestWorkspaceBudgetZeroAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n, c, hw, classes, ignore = 4, 8, 12, 21, 255
	x, wt, dout, s := convCase(41, n, c, hw, hw, c, 3, ConvSpec{Pad: 1})
	rng := rand.New(rand.NewSource(43))
	logits := randTensor(rng, n, classes, hw, hw)
	labels := make([]int32, n*hw*hw)
	for i := range labels {
		labels[i] = int32(rng.Intn(classes))
	}
	labels[0] = ignore
	pass := func(ws *Workspace, pred []int32) budgetRun {
		var r budgetRun
		r.out = Conv2DWS(x, wt, s, ws)
		r.dx, r.dw = Conv2DBackwardWS(x, wt, dout, s, ws)
		r.loss, r.dlogits = SoftmaxCrossEntropyWS(logits, labels, ignore, ws)
		ArgmaxClassInto(logits, pred, ws)
		r.pool = GlobalAvgPoolWS(x, ws)
		r.dpool = GlobalAvgPoolBackwardWS(r.pool, hw, hw, ws)
		r.up = BilinearResizeWS(x, 17, 17, ws)
		r.dup = BilinearResizeBackwardWS(r.up, hw, hw, ws)
		return r
	}

	serial := NewWorkspace()
	serial.SetWorkers(1)
	if got := serial.Workers(); got != 1 {
		t.Fatalf("Workers() = %d after SetWorkers(1)", got)
	}
	serialPred := make([]int32, len(labels))
	warm := func() { serial.Reset(); pass(serial, serialPred) }
	// A pooled tensor's shape header grows the first time a request
	// with more dims than its earlier borrowers draws it: two passes
	// settle the arena. At four procs the runtime's own goroutines can
	// land a stray allocation in a window, so the row is the least of
	// three; a kernel allocation would show in all of them.
	warm()
	warm()
	got := mallocsPerRun(4, 10, warm)
	for range 2 {
		got = min(got, mallocsPerRun(4, 10, warm))
	}
	if got != 0 {
		t.Errorf("one-worker pass allocates %.1f times at GOMAXPROCS=4, want 0", got)
	}

	wide := NewWorkspace()
	if got := wide.Workers(); got != 4 {
		t.Fatalf("default budget %d, want GOMAXPROCS=4", got)
	}
	widePred := make([]int32, len(labels))
	serial.Reset()
	a, b := pass(serial, serialPred), pass(wide, widePred)
	if math.Float64bits(a.loss) != math.Float64bits(b.loss) {
		t.Errorf("loss %v on one worker, %v on four", a.loss, b.loss)
	}
	for i := range serialPred {
		if serialPred[i] != widePred[i] {
			t.Fatalf("argmax differs at %d: %d on one worker, %d on four", i, serialPred[i], widePred[i])
		}
	}
	for _, p := range []struct {
		name       string
		got, wider *Tensor
	}{
		{"conv forward", a.out, b.out}, {"conv dx", a.dx, b.dx}, {"conv dw", a.dw, b.dw},
		{"loss gradient", a.dlogits, b.dlogits},
		{"avg pool", a.pool, b.pool}, {"avg pool backward", a.dpool, b.dpool},
		{"resize", a.up, b.up}, {"resize backward", a.dup, b.dup},
	} {
		requireBitIdentical(t, p.got, p.wider, p.name)
	}
}
