package deeplab

import (
	"math/rand"

	"segscale/internal/nn"
	"segscale/internal/tensor"
)

// Segmenter is the interface both models (DeepLab-v3+ and the FCN
// baseline) expose to the trainer.
type Segmenter interface {
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	Backward(dlogits *tensor.Tensor)
	Params() []*nn.Param
	BatchNorms() []*nn.BatchNorm2D
	Loss(x *tensor.Tensor, labels []int32, ignore int32, train bool) float64
	Predict(x *tensor.Tensor) []int32
	// PredictInto is Predict writing into a caller-owned label buffer
	// of exactly N·H·W entries — with a workspace installed, the
	// pooled evaluation path allocates only its kernels' Parallel
	// closures per batch.
	PredictInto(x *tensor.Tensor, out []int32) []int32
	// ReseedDropout pins any dropout layers' mask streams to the
	// given global step, making them a pure function of (model seed,
	// step) — the property checkpoint-restart recovery needs.
	ReseedDropout(step int64)
	// SetWorkspace installs a tensor.Workspace arena all activations
	// and kernel scratch are drawn from. The trainer Resets it at each
	// step boundary; nil (the default) keeps plain heap allocation.
	SetWorkspace(ws *tensor.Workspace)
	// SetActivationTap routes every labelled activation's training-mode
	// outputs to tap (the model-health plane's per-layer statistics
	// hook). Nil (the default) disables observation.
	SetActivationTap(tap nn.ActivationTap)
}

// FCN is the no-atrous, no-ASPP, no-skip baseline: a plain strided
// encoder with a bilinear upsampling head. It shows what DeepLab's
// architectural machinery buys on the segmentation task.
type FCN struct {
	Cfg    Config
	net    *nn.Sequential
	head   *nn.Sequential
	params []*nn.Param
	ws     *tensor.Workspace
}

// SetWorkspace implements Segmenter.
func (f *FCN) SetWorkspace(ws *tensor.Workspace) {
	f.ws = ws
	f.net.SetWorkspace(ws)
	f.head.SetWorkspace(ws)
}

// SetActivationTap implements Segmenter.
func (f *FCN) SetActivationTap(tap nn.ActivationTap) {
	f.net.SetActivationTap(tap)
	f.head.SetActivationTap(tap)
}

// NewFCN builds the baseline at a comparable parameter budget.
func NewFCN(cfg Config) *FCN {
	cfg.validate()
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := cfg.Width
	f := &FCN{Cfg: cfg}
	f.net = nn.NewSequential(
		nn.NewConv2D(rng, "fcn.c1", 3, w, 3, tensor.ConvSpec{Stride: 2, Pad: 1}, false),
		nn.NewBatchNorm2D("fcn.bn1", w),
		&nn.ReLU{Label: "fcn.c1.relu"},
		nn.NewConv2D(rng, "fcn.c2", w, 2*w, 3, tensor.ConvSpec{Stride: 2, Pad: 1}, false),
		nn.NewBatchNorm2D("fcn.bn2", 2*w),
		&nn.ReLU{Label: "fcn.c2.relu"},
		nn.NewConv2D(rng, "fcn.c3", 2*w, 2*w, 3, tensor.ConvSpec{Pad: 1}, false),
		nn.NewBatchNorm2D("fcn.bn3", 2*w),
		&nn.ReLU{Label: "fcn.c3.relu"},
		nn.NewConv2D(rng, "fcn.c4", 2*w, 2*w, 3, tensor.ConvSpec{Pad: 1}, false),
		nn.NewBatchNorm2D("fcn.bn4", 2*w),
		&nn.ReLU{Label: "fcn.c4.relu"},
	)
	f.head = nn.NewSequential(
		nn.NewConv2D(rng, "fcn.cls", 2*w, cfg.Classes, 1, tensor.ConvSpec{}, true),
		&nn.Upsample{OutH: cfg.InputSize, OutW: cfg.InputSize},
	)
	f.params = append(f.net.Params(), f.head.Params()...)
	nn.LayOutGrads(f.params)
	return f
}

func (f *FCN) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return f.head.Forward(f.net.Forward(x, train), train)
}

func (f *FCN) Backward(dlogits *tensor.Tensor) {
	f.net.Backward(f.head.Backward(dlogits))
}

// Params implements Segmenter: the list NewFCN built, whose gradients
// lie back to back in one arena in list order.
func (f *FCN) Params() []*nn.Param { return f.params }

func (f *FCN) BatchNorms() []*nn.BatchNorm2D {
	return append(f.net.BatchNorms(), f.head.BatchNorms()...)
}

func (f *FCN) Loss(x *tensor.Tensor, labels []int32, ignore int32, train bool) float64 {
	logits := f.Forward(x, train)
	loss, dlogits := tensor.SoftmaxCrossEntropyWS(logits, labels, ignore, f.ws)
	if train {
		f.Backward(dlogits)
	}
	return loss
}

// ReseedDropout implements Segmenter; the FCN has no dropout layers.
func (f *FCN) ReseedDropout(int64) {}

func (f *FCN) Predict(x *tensor.Tensor) []int32 {
	return tensor.ArgmaxClass(f.Forward(x, false))
}

// PredictInto is Predict writing into a caller-owned label buffer.
//
// Pooled eval inference, pinned by
// train.TestEvalAllocBudget/fcn_PredictInto.
func (f *FCN) PredictInto(x *tensor.Tensor, out []int32) []int32 {
	return tensor.ArgmaxClassInto(f.Forward(x, false), out, f.ws)
}

var (
	_ Segmenter = (*Model)(nil)
	_ Segmenter = (*FCN)(nil)
)
