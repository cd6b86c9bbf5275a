// Package deeplab implements a faithfully-shaped, scaled-down
// DeepLab-v3+ in pure Go: an Xception-style separable-convolution
// encoder with atrous (dilated) convolutions, the ASPP module
// (parallel atrous branches plus image-level pooling), and the v3+
// decoder that fuses low-level features through a skip connection.
// A plain FCN encoder-decoder ships alongside it as the contrast
// baseline.
//
// The full-size DeepLab-v3+/Xception-65 the paper trains is ~54M (as we count it; 41–55M in the literature)
// parameters on 513×513 crops — far beyond CPU training. This model
// keeps every architectural mechanism (separable convs, atrous rates,
// ASPP, decoder skip) at a width and resolution where real SGD
// converges in seconds, which is what the accuracy reproduction
// (paper: 80.8 % mIOU on VOC) needs. internal/model carries the
// full-size layer profile for the performance simulator.
package deeplab

import (
	"fmt"
	"math/rand"

	"segscale/internal/nn"
	"segscale/internal/tensor"
)

// Config sizes the network.
type Config struct {
	// InputSize is the (square) crop size; must be divisible by 4.
	InputSize int
	// Classes is the label-space size (21 for VOC).
	Classes int
	// Width is the base channel count (Xception-65 uses 32; the
	// scaled-down default is 12).
	Width int
	// AtrousRates are the ASPP dilation rates (paper: 6, 12, 18 at
	// output-stride 16; scaled down with the feature map).
	AtrousRates [3]int
	// DeepBlocks is the number of atrous residual blocks in the
	// encoder's middle flow.
	DeepBlocks int
	// DropProb is the ASPP-head spatial dropout probability.
	DropProb float64
	// NoDecoder drops the v3+ decoder (low-level skip + fusion
	// convs), reducing the architecture to DeepLab-v3: logits come
	// straight from the ASPP output, upsampled. The ablation that
	// distinguishes v3+ from v3.
	NoDecoder bool
	// Seed fixes weight initialisation (all ranks must agree before
	// the initial broadcast).
	Seed int64
}

// DefaultConfig returns the scaled-down training configuration.
func DefaultConfig() Config {
	return Config{
		InputSize:   24,
		Classes:     21,
		Width:       12,
		AtrousRates: [3]int{2, 4, 6},
		DeepBlocks:  2,
		DropProb:    0.1,
		Seed:        1,
	}
}

func (c Config) validate() {
	if c.InputSize%4 != 0 || c.InputSize < 8 {
		panic(fmt.Sprintf("deeplab: input size %d must be ≥8 and divisible by 4", c.InputSize))
	}
	if c.Classes < 2 || c.Width < 2 || c.DeepBlocks < 1 {
		panic(fmt.Sprintf("deeplab: degenerate config %+v", c))
	}
	for _, r := range c.AtrousRates {
		if r < 1 {
			panic("deeplab: atrous rate must be ≥1")
		}
	}
}

// sepConv builds one separable convolution unit: depthwise 3×3 (with
// dilation) → BN → ReLU → pointwise 1×1 → BN → ReLU.
func sepConv(rng *rand.Rand, name string, inC, outC, stride, dilation int) *nn.Sequential {
	pad := tensor.SamePad(3, dilation)
	if stride == 2 {
		pad = 1 // stride-2 halving uses the plain 3×3 geometry
	}
	return nn.NewSequential(
		nn.NewConv2D(rng, name+".dw", inC, inC, 3,
			tensor.ConvSpec{Stride: stride, Pad: pad, Dilation: dilation, Groups: inC}, false),
		nn.NewBatchNorm2D(name+".dwbn", inC),
		&nn.ReLU{Label: name + ".dw.relu"},
		nn.NewConv2D(rng, name+".pw", inC, outC, 1, tensor.ConvSpec{}, false),
		nn.NewBatchNorm2D(name+".pwbn", outC),
		&nn.ReLU{Label: name + ".pw.relu"},
	)
}

// xblock is an Xception-style residual block of two separable convs
// with an optional projection shortcut.
type xblock struct {
	body     *nn.Sequential
	shortcut nn.Layer // nil means identity
	ws       *tensor.Workspace
}

func newXBlock(rng *rand.Rand, name string, inC, outC, stride, dilation int) *xblock {
	b := &xblock{
		body: nn.NewSequential(
			sepConv(rng, name+".sep1", inC, outC, 1, dilation),
			sepConv(rng, name+".sep2", outC, outC, stride, dilation),
		),
	}
	if inC != outC || stride != 1 {
		b.shortcut = nn.NewSequential(
			nn.NewConv2D(rng, name+".proj", inC, outC, 1, tensor.ConvSpec{Stride: stride}, false),
			nn.NewBatchNorm2D(name+".projbn", outC),
		)
	}
	return b
}

func (b *xblock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := b.body.Forward(x, train)
	if b.shortcut != nil {
		out.Add(b.shortcut.Forward(x, train))
	} else {
		out.Add(x)
	}
	return out
}

func (b *xblock) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dx := b.body.Backward(dout)
	if b.shortcut != nil {
		dsc := b.shortcut.Backward(dout)
		dx.Add(dsc)
		b.ws.Put(dsc)
	} else {
		dx.Add(dout)
	}
	return dx
}

func (b *xblock) Params() []*nn.Param {
	out := b.body.Params()
	if b.shortcut != nil {
		out = append(out, b.shortcut.Params()...)
	}
	return out
}

func (b *xblock) BatchNorms() []*nn.BatchNorm2D {
	out := b.body.BatchNorms()
	if s, ok := b.shortcut.(nn.BatchNormer); ok {
		out = append(out, s.BatchNorms()...)
	}
	return out
}

func (b *xblock) SetWorkspace(ws *tensor.Workspace) {
	b.ws = ws
	b.body.SetWorkspace(ws)
	if s, ok := b.shortcut.(nn.WorkspaceUser); ok {
		s.SetWorkspace(ws)
	}
}

func (b *xblock) SetActivationTap(tap nn.ActivationTap) {
	b.body.SetActivationTap(tap)
	if s, ok := b.shortcut.(nn.ActivationTapUser); ok {
		s.SetActivationTap(tap)
	}
}

// aspp is the Atrous Spatial Pyramid Pooling head: a 1×1 branch,
// three atrous 3×3 branches, and an image-pooling branch, concatenated
// and projected.
type aspp struct {
	branches []nn.Layer // 1×1 + three atrous (all inC→branchC)
	poolConv *nn.Sequential
	project  *nn.Sequential
	dropout  *nn.Dropout2D

	branchC  int
	featH    int
	featW    int
	branchIn *tensor.Tensor
	ws       *tensor.Workspace
}

func (a *aspp) SetWorkspace(ws *tensor.Workspace) {
	a.ws = ws
	for _, b := range a.branches {
		if u, ok := b.(nn.WorkspaceUser); ok {
			u.SetWorkspace(ws)
		}
	}
	a.poolConv.SetWorkspace(ws)
	a.project.SetWorkspace(ws)
	a.dropout.SetWorkspace(ws)
}

func (a *aspp) SetActivationTap(tap nn.ActivationTap) {
	for _, b := range a.branches {
		if u, ok := b.(nn.ActivationTapUser); ok {
			u.SetActivationTap(tap)
		}
	}
	a.poolConv.SetActivationTap(tap)
	a.project.SetActivationTap(tap)
}

func newASPP(rng *rand.Rand, inC, branchC, outC int, rates [3]int, drop float64) *aspp {
	a := &aspp{branchC: branchC}
	a.branches = append(a.branches, nn.NewSequential(
		nn.NewConv2D(rng, "aspp.b0", inC, branchC, 1, tensor.ConvSpec{}, false),
		nn.NewBatchNorm2D("aspp.b0bn", branchC),
		&nn.ReLU{Label: "aspp.b0.relu"},
	))
	for i, r := range rates {
		name := fmt.Sprintf("aspp.b%d", i+1)
		a.branches = append(a.branches, nn.NewSequential(
			nn.NewConv2D(rng, name, inC, branchC, 3,
				tensor.ConvSpec{Pad: tensor.SamePad(3, r), Dilation: r}, false),
			nn.NewBatchNorm2D(name+"bn", branchC),
			&nn.ReLU{Label: name + ".relu"},
		))
	}
	a.poolConv = nn.NewSequential(
		nn.NewConv2D(rng, "aspp.pool", inC, branchC, 1, tensor.ConvSpec{}, true),
		&nn.ReLU{Label: "aspp.pool.relu"},
	)
	a.project = nn.NewSequential(
		nn.NewConv2D(rng, "aspp.proj", branchC*5, outC, 1, tensor.ConvSpec{}, false),
		nn.NewBatchNorm2D("aspp.projbn", outC),
		&nn.ReLU{Label: "aspp.proj.relu"},
	)
	a.dropout = &nn.Dropout2D{P: drop, Seed: rng.Int63()}
	return a
}

func (a *aspp) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	a.featH, a.featW = x.Dim(2), x.Dim(3)
	a.branchIn = x
	var outs [5]*tensor.Tensor
	for i, b := range a.branches {
		outs[i] = b.Forward(x, train)
	}
	pooled := tensor.GlobalAvgPoolWS(x, a.ws)
	pooled = a.poolConv.Forward(pooled, train)
	outs[4] = tensor.BilinearResizeWS(pooled, a.featH, a.featW, a.ws)
	cat := nn.ConcatChannelsWS(a.ws, outs[:]...)
	return a.dropout.Forward(a.project.Forward(cat, train), train)
}

// Backward returns each gradient it makes to the workspace once it is
// consumed; dout is the caller's, and the dropout hands it back
// unchanged when inactive.
func (a *aspp) Backward(dout *tensor.Tensor) *tensor.Tensor {
	ddrop := a.dropout.Backward(dout)
	dcat := a.project.Backward(ddrop)
	if ddrop != dout {
		a.ws.Put(ddrop)
	}
	sizes := [5]int{a.branchC, a.branchC, a.branchC, a.branchC, a.branchC}
	parts := nn.SplitChannelsWS(dcat, sizes[:], a.ws)
	a.ws.Put(dcat)
	var dx *tensor.Tensor
	for i, b := range a.branches {
		g := b.Backward(parts[i])
		a.ws.Put(parts[i])
		if dx == nil {
			dx = g
		} else {
			dx.Add(g)
			a.ws.Put(g)
		}
	}
	// Pool branch: resize adjoint → conv → spread over the extent.
	dpool := tensor.BilinearResizeBackwardWS(parts[4], 1, 1, a.ws)
	a.ws.Put(parts[4])
	dconv := a.poolConv.Backward(dpool)
	a.ws.Put(dpool)
	dspread := tensor.GlobalAvgPoolBackwardWS(dconv, a.featH, a.featW, a.ws)
	a.ws.Put(dconv)
	dx.Add(dspread)
	a.ws.Put(dspread)
	return dx
}

func (a *aspp) Params() []*nn.Param {
	var out []*nn.Param
	for _, b := range a.branches {
		out = append(out, b.Params()...)
	}
	out = append(out, a.poolConv.Params()...)
	out = append(out, a.project.Params()...)
	return out
}

func (a *aspp) BatchNorms() []*nn.BatchNorm2D {
	var out []*nn.BatchNorm2D
	for _, b := range a.branches {
		if s, ok := b.(nn.BatchNormer); ok {
			out = append(out, s.BatchNorms()...)
		}
	}
	out = append(out, a.poolConv.BatchNorms()...)
	out = append(out, a.project.BatchNorms()...)
	return out
}

// Model is the scaled-down DeepLab-v3+.
type Model struct {
	Cfg Config

	entry      *nn.Sequential // OS2, low-level features
	down       *xblock        // OS4
	deep       []*xblock      // atrous middle flow at OS4
	head       *aspp
	decLow     *nn.Sequential // 1×1 reduction of low-level features
	decoder    *nn.Sequential // fusion convs
	classifier *nn.Conv2D

	params []*nn.Param
	ws     *tensor.Workspace

	// Cached activations for the backward pass.
	lowFeat *tensor.Tensor
	lowC    int
}

// SetWorkspace implements Segmenter: every layer and the model's own
// resize/concat/pool glue draw from ws.
func (m *Model) SetWorkspace(ws *tensor.Workspace) {
	m.ws = ws
	m.entry.SetWorkspace(ws)
	m.down.SetWorkspace(ws)
	for _, b := range m.deep {
		b.SetWorkspace(ws)
	}
	m.head.SetWorkspace(ws)
	if !m.Cfg.NoDecoder {
		m.decLow.SetWorkspace(ws)
		m.decoder.SetWorkspace(ws)
	}
	m.classifier.SetWorkspace(ws)
}

// SetActivationTap implements Segmenter: every labelled activation in
// the network reports its training-mode outputs to tap.
func (m *Model) SetActivationTap(tap nn.ActivationTap) {
	m.entry.SetActivationTap(tap)
	m.down.SetActivationTap(tap)
	for _, b := range m.deep {
		b.SetActivationTap(tap)
	}
	m.head.SetActivationTap(tap)
	if !m.Cfg.NoDecoder {
		m.decLow.SetActivationTap(tap)
		m.decoder.SetActivationTap(tap)
	}
}

// New constructs the model with deterministic initialisation.
func New(cfg Config) *Model {
	cfg.validate()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := cfg.Width
	m := &Model{Cfg: cfg}

	m.entry = nn.NewSequential(
		nn.NewConv2D(rng, "entry", 3, w, 3, tensor.ConvSpec{Stride: 2, Pad: 1}, false),
		nn.NewBatchNorm2D("entrybn", w),
		&nn.ReLU{Label: "entry.relu"},
	)
	m.down = newXBlock(rng, "down", w, 2*w, 2, 1)
	for i := 0; i < cfg.DeepBlocks; i++ {
		m.deep = append(m.deep, newXBlock(rng, fmt.Sprintf("deep%d", i), 2*w, 2*w, 1, 2))
	}
	m.head = newASPP(rng, 2*w, w, 2*w, cfg.AtrousRates, cfg.DropProb)
	if !cfg.NoDecoder {
		m.decLow = nn.NewSequential(
			nn.NewConv2D(rng, "dec.low", w, w/2, 1, tensor.ConvSpec{}, false),
			nn.NewBatchNorm2D("dec.lowbn", w/2),
			&nn.ReLU{Label: "dec.low.relu"},
		)
		m.decoder = nn.NewSequential(
			nn.NewConv2D(rng, "dec.fuse1", 2*w+w/2, 2*w, 3, tensor.ConvSpec{Pad: 1}, false),
			nn.NewBatchNorm2D("dec.fuse1bn", 2*w),
			&nn.ReLU{Label: "dec.fuse1.relu"},
			nn.NewConv2D(rng, "dec.fuse2", 2*w, 2*w, 3, tensor.ConvSpec{Pad: 1}, false),
			nn.NewBatchNorm2D("dec.fuse2bn", 2*w),
			&nn.ReLU{Label: "dec.fuse2.relu"},
		)
	}
	m.classifier = nn.NewConv2D(rng, "classifier", 2*w, cfg.Classes, 1, tensor.ConvSpec{}, true)

	for _, l := range []nn.Layer{m.entry, m.down} {
		m.params = append(m.params, l.Params()...)
	}
	for _, b := range m.deep {
		m.params = append(m.params, b.Params()...)
	}
	m.params = append(m.params, m.head.Params()...)
	if !cfg.NoDecoder {
		m.params = append(m.params, m.decLow.Params()...)
		m.params = append(m.params, m.decoder.Params()...)
	}
	m.params = append(m.params, m.classifier.Params()...)
	nn.LayOutGrads(m.params)
	return m
}

// Params returns all trainable parameters in a deterministic order
// (identical across ranks, which gradient allreduce relies on). Their
// gradients lie back to back in that order in one arena, so each
// fusion group is reduced in place.
func (m *Model) Params() []*nn.Param { return m.params }

// BatchNorms enumerates every batch-norm layer in a deterministic
// order (identical across ranks, which SyncBN relies on).
func (m *Model) BatchNorms() []*nn.BatchNorm2D {
	var out []*nn.BatchNorm2D
	out = append(out, m.entry.BatchNorms()...)
	out = append(out, m.down.BatchNorms()...)
	for _, b := range m.deep {
		out = append(out, b.BatchNorms()...)
	}
	out = append(out, m.head.BatchNorms()...)
	if !m.Cfg.NoDecoder {
		out = append(out, m.decLow.BatchNorms()...)
		out = append(out, m.decoder.BatchNorms()...)
	}
	return out
}

// ParamCount returns the number of trainable scalars.
func (m *Model) ParamCount() int { return nn.ParamCount(m.params) }

// ReseedDropout pins the ASPP head's dropout masks to the global step
// (see nn.Dropout2D.Reseed) so a checkpoint-restored replica draws the
// same masks the original run would have.
func (m *Model) ReseedDropout(step int64) { m.head.dropout.Reseed(step) }

// Forward computes per-pixel class logits [N, Classes, S, S] for an
// input batch [N, 3, S, S].
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dim(2) != m.Cfg.InputSize || x.Dim(3) != m.Cfg.InputSize {
		panic(fmt.Sprintf("deeplab: input %v, configured for %d", x.Shape, m.Cfg.InputSize))
	}
	low := m.entry.Forward(x, train) // OS2
	m.lowFeat = low
	enc := m.down.Forward(low, train) // OS4
	for _, b := range m.deep {
		enc = b.Forward(enc, train)
	}
	enc = m.head.Forward(enc, train)

	if m.Cfg.NoDecoder {
		// DeepLab-v3: classify the ASPP output directly and
		// upsample 4× to the input resolution.
		logits := m.classifier.Forward(enc, train)
		return tensor.BilinearResizeWS(logits, m.Cfg.InputSize, m.Cfg.InputSize, m.ws)
	}

	// Decoder: upsample encoder output to OS2, fuse with reduced
	// low-level features, refine, classify, upsample to input size.
	os2 := m.Cfg.InputSize / 2
	up := tensor.BilinearResizeWS(enc, os2, os2, m.ws)
	m.lowC = up.Dim(1)
	lowRed := m.decLow.Forward(low, train)
	fused := nn.ConcatChannelsWS(m.ws, up, lowRed)
	fused = m.decoder.Forward(fused, train)
	logits := m.classifier.Forward(fused, train)
	return tensor.BilinearResizeWS(logits, m.Cfg.InputSize, m.Cfg.InputSize, m.ws)
}

// Backward propagates d(loss)/d(logits) through the whole graph,
// accumulating parameter gradients. The input gradient is discarded
// (images are not trainable). Every gradient it makes goes back to the
// workspace once consumed; dlogits is the caller's.
func (m *Model) Backward(dlogits *tensor.Tensor) {
	os2 := m.Cfg.InputSize / 2
	os4 := m.Cfg.InputSize / 4

	// through runs one stage and releases the gradient it consumed.
	through := func(d *tensor.Tensor, stage nn.Layer) *tensor.Tensor {
		next := stage.Backward(d)
		m.ws.Put(d)
		return next
	}
	var dEnc, dLow *tensor.Tensor
	if m.Cfg.NoDecoder {
		dEnc = through(tensor.BilinearResizeBackwardWS(dlogits, os4, os4, m.ws), m.classifier)
	} else {
		d := tensor.BilinearResizeBackwardWS(dlogits, os2, os2, m.ws)
		d = through(through(d, m.classifier), m.decoder)
		sizes := [2]int{m.lowC, d.Dim(1) - m.lowC}
		parts := nn.SplitChannelsWS(d, sizes[:], m.ws)
		m.ws.Put(d)
		dUp, dLowRed := parts[0], parts[1]

		dLow = through(dLowRed, m.decLow)
		dEnc = tensor.BilinearResizeBackwardWS(dUp, os4, os4, m.ws)
		m.ws.Put(dUp)
	}
	dEnc = through(dEnc, m.head)
	for i := len(m.deep) - 1; i >= 0; i-- {
		dEnc = through(dEnc, m.deep[i])
	}
	dDown := through(dEnc, m.down)
	if dLow == nil {
		dLow = dDown
	} else {
		dLow.Add(dDown)
		m.ws.Put(dDown)
	}
	m.ws.Put(through(dLow, m.entry))
	m.lowFeat = nil
}

// Loss runs forward + softmax cross-entropy + backward for one batch,
// returning the loss and leaving gradients accumulated on Params.
func (m *Model) Loss(x *tensor.Tensor, labels []int32, ignore int32, train bool) float64 {
	logits := m.Forward(x, train)
	loss, dlogits := tensor.SoftmaxCrossEntropyWS(logits, labels, ignore, m.ws)
	if train {
		m.Backward(dlogits)
	}
	return loss
}

// Predict returns argmax labels for a batch.
func (m *Model) Predict(x *tensor.Tensor) []int32 {
	return tensor.ArgmaxClass(m.Forward(x, false))
}

// PredictInto is Predict writing labels into a caller-owned buffer of
// exactly N·H·W entries.
//
// Pooled eval inference, pinned by
// train.TestEvalAllocBudget/deeplab_PredictInto.
func (m *Model) PredictInto(x *tensor.Tensor, out []int32) []int32 {
	return tensor.ArgmaxClassInto(m.Forward(x, false), out, m.ws)
}
