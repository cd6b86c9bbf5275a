package nn

import (
	"fmt"
	"math"
	"math/rand"

	"segscale/internal/tensor"
)

// WorkspaceUser is implemented by layers that can draw their
// activations and scratch from a tensor.Workspace arena instead of the
// heap. Trainers install one workspace per model replica and Reset it
// at each step boundary; a nil workspace (the default) falls back to
// plain heap allocation everywhere.
type WorkspaceUser interface {
	SetWorkspace(ws *tensor.Workspace)
}

// ActivationTap observes post-activation tensors during training
// forwards. Implementations must treat the tensor as read-only and
// must not retain it — it is workspace-owned and dies at the step's
// Reset. Taps fire on the hot path, so they must be allocation-free
// in steady state.
type ActivationTap interface {
	ObserveActivation(layer string, act *tensor.Tensor)
}

// ActivationTapUser is implemented by layers and models that can route
// their activations to a tap. A nil tap (the default) disables
// observation entirely.
type ActivationTapUser interface {
	SetActivationTap(tap ActivationTap)
}

// Conv2D is a convolution layer (optionally with bias). Dilation > 1
// makes it an atrous convolution; Groups == in-channels makes it
// depthwise.
type Conv2D struct {
	Spec tensor.ConvSpec
	w    *Param
	b    *Param // nil when bias is disabled

	x  *tensor.Tensor // cached input
	ws *tensor.Workspace
}

// SetWorkspace installs the arena forward/backward activations and
// im2col scratch are drawn from.
func (c *Conv2D) SetWorkspace(ws *tensor.Workspace) { c.ws = ws }

// NewConv2D creates a conv layer with He-initialised weights.
func NewConv2D(rng *rand.Rand, name string, inC, outC, k int, spec tensor.ConvSpec, bias bool) *Conv2D {
	s := spec.Canon()
	if inC%s.Groups != 0 {
		panic(fmt.Sprintf("nn: conv %s groups %d does not divide channels %d", name, s.Groups, inC))
	}
	fanIn := (inC / s.Groups) * k * k
	std := math.Sqrt(2.0 / float64(fanIn))
	c := &Conv2D{
		Spec: s,
		w:    newParam(name+".w", tensor.Randn(rng, std, outC, inC/s.Groups, k, k), true),
	}
	if bias {
		c.b = newParam(name+".b", tensor.New(outC), false)
	}
	return c
}

func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	c.x = x
	out := tensor.Conv2DWS(x, c.w.W, c.Spec, c.ws)
	if c.b != nil {
		n, f, oh, ow := out.Dim(0), out.Dim(1), out.Dim(2), out.Dim(3)
		spatial := oh * ow
		for i := 0; i < n; i++ {
			for ff := 0; ff < f; ff++ {
				bias := c.b.W.Data[ff]
				row := out.Data[(i*f+ff)*spatial : (i*f+ff+1)*spatial]
				for j := range row {
					row[j] += bias
				}
			}
		}
	}
	return out
}

func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if c.x == nil {
		panic("nn: conv backward before forward")
	}
	dx := tensor.Conv2DBackwardAccWS(c.x, c.w.W, dout, c.w.G, c.Spec, c.ws)
	if c.b != nil {
		n, f, oh, ow := dout.Dim(0), dout.Dim(1), dout.Dim(2), dout.Dim(3)
		spatial := oh * ow
		for i := 0; i < n; i++ {
			for ff := 0; ff < f; ff++ {
				var s float32
				for _, v := range dout.Data[(i*f+ff)*spatial : (i*f+ff+1)*spatial] {
					s += v
				}
				c.b.G.Data[ff] += s
			}
		}
	}
	c.x = nil
	return dx
}

func (c *Conv2D) Params() []*Param {
	if c.b != nil {
		return []*Param{c.w, c.b}
	}
	return []*Param{c.w}
}

// BatchNorm2D normalises per channel over (N,H,W) with learnable
// scale and shift, tracking running statistics for evaluation.
//
// Setting Sync turns it into synchronized batch norm (the cross-rank
// variant distributed segmentation training needs when per-rank
// batches are small): forward statistics and the backward correction
// sums are globally summed through the callback, so every rank
// normalises over the *effective* batch.
type BatchNorm2D struct {
	gamma, beta *Param
	Momentum    float64
	Eps         float64

	// Sync, when non-nil, sums the given vector elementwise across
	// all ranks in place (an allreduce-sum). All ranks must reach
	// every BatchNorm in the same order — true for replicated models.
	Sync func([]float64)

	RunningMean []float64
	RunningVar  []float64

	// Cached forward state.
	x        *tensor.Tensor
	xhat     *tensor.Tensor
	mean     []float64
	invStd   []float64
	count    float64 // global pixel count per channel
	lastEval bool

	ws *tensor.Workspace
	// Reused float64 reduction buffers (channel count is fixed per
	// layer, so one allocation serves every step).
	sums, corr []float64
}

// SetWorkspace installs the arena the normalised activations are
// drawn from.
func (bn *BatchNorm2D) SetWorkspace(ws *tensor.Workspace) { bn.ws = ws }

// f64buf returns buf resized to n, reallocating only on growth.
func f64buf(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// NewBatchNorm2D creates a batch-norm layer for c channels.
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	bn := &BatchNorm2D{
		gamma:       newParam(name+".gamma", tensor.Full(1, c), false),
		beta:        newParam(name+".beta", tensor.New(c), false),
		Momentum:    0.9,
		Eps:         1e-5,
		RunningMean: make([]float64, c),
		RunningVar:  make([]float64, c),
	}
	for i := range bn.RunningVar {
		bn.RunningVar[i] = 1
	}
	return bn
}

func (bn *BatchNorm2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c != bn.gamma.W.Len() {
		panic(fmt.Sprintf("nn: batchnorm %d channels, input has %d", bn.gamma.W.Len(), c))
	}
	spatial := h * w
	cnt := float64(n * spatial)
	out := bn.ws.GetRaw(n, c, h, w) // every element written below
	bn.lastEval = !train

	mean := f64buf(bn.mean, c)
	invStd := f64buf(bn.invStd, c)
	if train {
		// Per-channel sums; with Sync these become global sums over
		// every rank's batch.
		sums := f64buf(bn.sums, 2*c+1)
		bn.sums = sums
		for ch := 0; ch < c; ch++ {
			var s, s2 float64
			for i := 0; i < n; i++ {
				row := x.Data[(i*c+ch)*spatial : (i*c+ch+1)*spatial]
				for _, v := range row {
					fv := float64(v)
					s += fv
					s2 += fv * fv
				}
			}
			sums[ch], sums[c+ch] = s, s2
		}
		sums[2*c] = cnt
		if bn.Sync != nil {
			bn.Sync(sums)
		}
		cnt = sums[2*c]
		bn.count = cnt
		for ch := 0; ch < c; ch++ {
			m := sums[ch] / cnt
			v := sums[c+ch]/cnt - m*m
			if v < 0 {
				v = 0
			}
			mean[ch] = m
			invStd[ch] = 1 / math.Sqrt(v+bn.Eps)
			bn.RunningMean[ch] = bn.Momentum*bn.RunningMean[ch] + (1-bn.Momentum)*m
			bn.RunningVar[ch] = bn.Momentum*bn.RunningVar[ch] + (1-bn.Momentum)*v
		}
	} else {
		for ch := 0; ch < c; ch++ {
			mean[ch] = bn.RunningMean[ch]
			invStd[ch] = 1 / math.Sqrt(bn.RunningVar[ch]+bn.Eps)
		}
	}

	xhat := bn.ws.GetRaw(n, c, h, w) // every element written below
	for i := 0; i < n; i++ {
		for ch := 0; ch < c; ch++ {
			g := bn.gamma.W.Data[ch]
			b := bn.beta.W.Data[ch]
			m := float32(mean[ch])
			is := float32(invStd[ch])
			in := x.Data[(i*c+ch)*spatial : (i*c+ch+1)*spatial]
			xh := xhat.Data[(i*c+ch)*spatial : (i*c+ch+1)*spatial]
			dst := out.Data[(i*c+ch)*spatial : (i*c+ch+1)*spatial]
			for j, v := range in {
				xh[j] = (v - m) * is
				dst[j] = g*xh[j] + b
			}
		}
	}
	bn.x, bn.xhat, bn.mean, bn.invStd = x, xhat, mean, invStd
	return out
}

func (bn *BatchNorm2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if bn.xhat == nil {
		panic("nn: batchnorm backward before forward")
	}
	n, c, h, w := dout.Dim(0), dout.Dim(1), dout.Dim(2), dout.Dim(3)
	spatial := h * w
	cnt := float64(n * spatial)
	if bn.Sync != nil && !bn.lastEval {
		cnt = bn.count
	}
	dx := bn.ws.GetRaw(n, c, h, w) // every element written below

	// Per-channel local sums: dgamma, dbeta, Σdxhat, Σdxhat·xhat.
	// With Sync, the correction sums become global (dgamma/dbeta stay
	// local: the gradient allreduce handles parameters).
	corr := f64buf(bn.corr, 2*c)
	bn.corr = corr
	for ch := 0; ch < c; ch++ {
		gamma := float64(bn.gamma.W.Data[ch])
		var dgamma, dbeta float64
		for i := 0; i < n; i++ {
			base := (i*c + ch) * spatial
			for j := 0; j < spatial; j++ {
				g := float64(dout.Data[base+j])
				xh := float64(bn.xhat.Data[base+j])
				dgamma += g * xh
				dbeta += g
			}
		}
		bn.gamma.G.Data[ch] += float32(dgamma)
		bn.beta.G.Data[ch] += float32(dbeta)
		corr[ch] = dbeta * gamma    // Σ dxhat
		corr[c+ch] = dgamma * gamma // Σ dxhat·xhat
	}

	if bn.lastEval {
		// Eval-mode backward (used in gradient tests): running stats
		// are constants, no batch coupling.
		for ch := 0; ch < c; ch++ {
			k := float32(float64(bn.gamma.W.Data[ch]) * bn.invStd[ch])
			for i := 0; i < n; i++ {
				base := (i*c + ch) * spatial
				for j := 0; j < spatial; j++ {
					dx.Data[base+j] = k * dout.Data[base+j]
				}
			}
		}
		bn.x, bn.xhat = nil, nil
		return dx
	}

	if bn.Sync != nil {
		bn.Sync(corr)
	}
	for ch := 0; ch < c; ch++ {
		gamma := float64(bn.gamma.W.Data[ch])
		is := bn.invStd[ch]
		dxhatSum, dxhatXhatSum := corr[ch], corr[c+ch]
		for i := 0; i < n; i++ {
			base := (i*c + ch) * spatial
			for j := 0; j < spatial; j++ {
				dxhat := float64(dout.Data[base+j]) * gamma
				xh := float64(bn.xhat.Data[base+j])
				dx.Data[base+j] = float32(is * (dxhat - dxhatSum/cnt - xh*dxhatXhatSum/cnt))
			}
		}
	}
	bn.x, bn.xhat = nil, nil
	return dx
}

// BatchNormer is implemented by layers that can enumerate their
// (possibly nested) batch-norm sublayers, so trainers can install the
// SyncBN callback.
type BatchNormer interface {
	BatchNorms() []*BatchNorm2D
}

// BatchNorms returns the layer itself.
func (bn *BatchNorm2D) BatchNorms() []*BatchNorm2D { return []*BatchNorm2D{bn} }

// BatchNorms recurses over children.
func (s *Sequential) BatchNorms() []*BatchNorm2D {
	var out []*BatchNorm2D
	for _, l := range s.Layers {
		if b, ok := l.(BatchNormer); ok {
			out = append(out, b.BatchNorms()...)
		}
	}
	return out
}

func (bn *BatchNorm2D) Params() []*Param { return []*Param{bn.gamma, bn.beta} }

// ReLU is the rectified linear activation. Instead of materialising a
// boolean mask it keeps the input tensor alive until backward and
// re-tests the sign — the input is workspace-owned and valid until the
// step's Reset, so this costs no extra memory.
//
// Label names the activation for health taps (e.g. "aspp.b0.relu");
// an unlabelled ReLU is never observed.
type ReLU struct {
	Label string

	x   *tensor.Tensor
	ws  *tensor.Workspace
	tap ActivationTap
}

// SetWorkspace installs the arena activations are drawn from.
func (r *ReLU) SetWorkspace(ws *tensor.Workspace) { r.ws = ws }

// SetActivationTap routes this unit's training-mode outputs to tap.
func (r *ReLU) SetActivationTap(tap ActivationTap) { r.tap = tap }

func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	r.x = x
	out := r.ws.GetRaw(x.Shape...)
	for i, v := range x.Data {
		if v <= 0 {
			out.Data[i] = 0
		} else {
			out.Data[i] = v
		}
	}
	if train && r.tap != nil && r.Label != "" {
		r.tap.ObserveActivation(r.Label, out)
	}
	return out
}

func (r *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if r.x == nil {
		panic("nn: relu backward before forward")
	}
	dx := r.ws.GetRaw(dout.Shape...)
	xd := r.x.Data
	for i, g := range dout.Data {
		if xd[i] <= 0 {
			dx.Data[i] = 0
		} else {
			dx.Data[i] = g
		}
	}
	r.x = nil
	return dx
}

func (r *ReLU) Params() []*Param { return nil }

// Dropout2D zeroes whole channels with probability P during training
// (spatial dropout, as DeepLab's ASPP head uses), scaling the
// survivors by 1/(1−P). Set Rng directly, or set Seed and leave Rng
// nil for lazy seeding (which keeps the layer reseedable per step —
// see Reseed).
type Dropout2D struct {
	P    float64
	Seed int64
	Rng  *rand.Rand

	kept   []bool // reused across steps; valid only while active
	active bool   // a training forward ran and backward is pending
	dims   [2]int
	ws     *tensor.Workspace
}

// SetWorkspace installs the arena activations are drawn from.
func (d *Dropout2D) SetWorkspace(ws *tensor.Workspace) { d.ws = ws }

// Reseed repositions the mask stream to a pure function of (Seed,
// step), detaching it from how many forward passes this instance has
// already run. The trainer calls it every step so a replica restored
// from a checkpoint draws exactly the masks the original run would
// have — without it the dropout RNG's cursor is invisible training
// state no checkpoint can capture.
func (d *Dropout2D) Reseed(step int64) {
	seed := d.Seed + (step+1)*6364136223846793005
	if d.Rng != nil {
		// Re-seeding in place replays exactly the stream a fresh
		// rand.New(rand.NewSource(seed)) would produce — both paths
		// reset the same generator state — without the two per-step
		// heap allocations the construct-a-new-Rand form paid.
		d.Rng.Seed(seed)
		return
	}
	d.Rng = rand.New(rand.NewSource(seed))
}

func (d *Dropout2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if !train || d.P <= 0 {
		d.active = false
		return x
	}
	d.active = true
	if d.Rng == nil {
		d.Rng = rand.New(rand.NewSource(d.Seed))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	spatial := h * w
	out := d.ws.GetRaw(n, c, h, w) // both branches below write fully
	if cap(d.kept) < n*c {
		d.kept = make([]bool, n*c)
	} else {
		d.kept = d.kept[:n*c]
	}
	d.dims = [2]int{h, w}
	scale := float32(1 / (1 - d.P))
	for i := 0; i < n*c; i++ {
		keep := d.Rng.Float64() >= d.P
		d.kept[i] = keep
		dst := out.Data[i*spatial : (i+1)*spatial]
		if keep {
			src := x.Data[i*spatial : (i+1)*spatial]
			for j, v := range src {
				dst[j] = v * scale
			}
		} else {
			for j := range dst {
				dst[j] = 0
			}
		}
	}
	return out
}

func (d *Dropout2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if !d.active {
		return dout
	}
	n, c := dout.Dim(0), dout.Dim(1)
	spatial := d.dims[0] * d.dims[1]
	dx := d.ws.GetRaw(dout.Shape...) // both branches below write fully
	scale := float32(1 / (1 - d.P))
	for i := 0; i < n*c; i++ {
		dst := dx.Data[i*spatial : (i+1)*spatial]
		if d.kept[i] {
			src := dout.Data[i*spatial : (i+1)*spatial]
			for j, v := range src {
				dst[j] = v * scale
			}
		} else {
			for j := range dst {
				dst[j] = 0
			}
		}
	}
	d.active = false
	return dx
}

func (d *Dropout2D) Params() []*Param { return nil }

// Sequential chains layers.
type Sequential struct {
	Layers []Layer

	ws *tensor.Workspace
}

func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// SetWorkspace recursively installs ws on every child that accepts
// one.
func (s *Sequential) SetWorkspace(ws *tensor.Workspace) {
	s.ws = ws
	for _, l := range s.Layers {
		if u, ok := l.(WorkspaceUser); ok {
			u.SetWorkspace(ws)
		}
	}
}

// SetActivationTap recursively installs tap on every child that
// accepts one.
func (s *Sequential) SetActivationTap(tap ActivationTap) {
	for _, l := range s.Layers {
		if u, ok := l.(ActivationTapUser); ok {
			u.SetActivationTap(tap)
		}
	}
}

func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward runs the layers' backwards in reverse. Each gradient it
// passes between two layers is returned to the workspace as soon as the
// earlier layer has consumed it, so the arena holds one such gradient
// at a time rather than one per layer until the step's Reset. The
// caller's dout is never released, nor a gradient a layer handed back
// unchanged (an inactive Dropout2D), which stays live until it is
// consumed.
func (s *Sequential) Backward(dout *tensor.Tensor) *tensor.Tensor {
	d := dout
	for i := len(s.Layers) - 1; i >= 0; i-- {
		next := s.Layers[i].Backward(d)
		if d != dout && next != d {
			s.ws.Put(d)
		}
		d = next
	}
	return d
}

func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ConcatChannelsWS concatenates NCHW tensors along the channel axis,
// with the output drawn from ws (heap when nil).
func ConcatChannelsWS(ws *tensor.Workspace, xs ...*tensor.Tensor) *tensor.Tensor {
	n, h, w := xs[0].Dim(0), xs[0].Dim(2), xs[0].Dim(3)
	total := 0
	for _, x := range xs {
		if x.Dim(0) != n || x.Dim(2) != h || x.Dim(3) != w {
			panic(fmt.Sprintf("nn: concat shape mismatch %v vs %v", xs[0].Shape, x.Shape))
		}
		total += x.Dim(1)
	}
	out := ws.GetRaw(n, total, h, w) // fully covered by the copies
	spatial := h * w
	for i := 0; i < n; i++ {
		off := 0
		for _, x := range xs {
			c := x.Dim(1)
			copy(out.Data[(i*total+off)*spatial:(i*total+off+c)*spatial],
				x.Data[i*c*spatial:(i+1)*c*spatial])
			off += c
		}
	}
	return out
}

// SplitChannelsWS is the backward of ConcatChannelsWS: it slices dout
// into per-input gradients with the given channel counts, drawn from
// ws (heap when nil; the result slice itself is a small per-call
// allocation).
func SplitChannelsWS(dout *tensor.Tensor, channels []int, ws *tensor.Workspace) []*tensor.Tensor {
	n, total, h, w := dout.Dim(0), dout.Dim(1), dout.Dim(2), dout.Dim(3)
	sum := 0
	for _, c := range channels {
		sum += c
	}
	if sum != total {
		panic(fmt.Sprintf("nn: split %v channels from %d", channels, total))
	}
	spatial := h * w
	outs := make([]*tensor.Tensor, len(channels))
	off := 0
	for k, c := range channels {
		g := ws.GetRaw(n, c, h, w) // fully covered by the copies
		for i := 0; i < n; i++ {
			copy(g.Data[i*c*spatial:(i+1)*c*spatial],
				dout.Data[(i*total+off)*spatial:(i*total+off+c)*spatial])
		}
		outs[k] = g
		off += c
	}
	return outs
}

// Upsample bilinearly resizes to a fixed target size.
type Upsample struct {
	OutH, OutW int
	inH, inW   int
	ws         *tensor.Workspace
}

// SetWorkspace installs the arena activations are drawn from.
func (u *Upsample) SetWorkspace(ws *tensor.Workspace) { u.ws = ws }

func (u *Upsample) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	u.inH, u.inW = x.Dim(2), x.Dim(3)
	return tensor.BilinearResizeWS(x, u.OutH, u.OutW, u.ws)
}

func (u *Upsample) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return tensor.BilinearResizeBackwardWS(dout, u.inH, u.inW, u.ws)
}

func (u *Upsample) Params() []*Param { return nil }
