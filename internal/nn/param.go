// Package nn provides the trainable-layer library for the real
// (non-simulated) training path: convolution (including atrous and
// depthwise), batch normalisation, activations, dropout, bilinear
// upsampling, and channel concatenation, each with an explicit
// backward pass; plus SGD with momentum and the poly learning-rate
// schedule DeepLab trains with.
//
// Layers cache their forward inputs, so a layer instance serves one
// (Forward, Backward) pair per step — the usual define-by-run
// contract. Model graphs with skips (DeepLab's decoder, ASPP) call
// layers directly and route gradients by hand in internal/deeplab.
package nn

import "segscale/internal/tensor"

// Param is one trainable tensor with its gradient accumulator. The
// distributed trainer allreduces G.Data across ranks between backward
// and the optimiser step — exactly where Horovod intercepts gradients.
// Layers build their parameters without a gradient; whoever assembles
// the model gives them one with LayOutGrads.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
	// Decay marks parameters subject to weight decay (convolution
	// weights yes; batch-norm scale/shift and biases no, following
	// DeepLab's training recipe).
	Decay bool
}

func newParam(name string, w *tensor.Tensor, decay bool) *Param {
	return &Param{Name: name, W: w, Decay: decay}
}

// LayOutGrads gives every parameter in params a zeroed gradient, laid
// out back to back in one slice in list order: the gradient arena. A
// run of consecutive parameters then owns one contiguous range of it,
// which is what the fused allreduce reduces in place
// (horovod.Runtime.AllreduceGrads). Call it once on the model's
// parameter list, after building the model.
func LayOutGrads(params []*Param) {
	arena := make([]float32, ParamCount(params))
	off := 0
	for _, p := range params {
		n := p.W.Len()
		p.G = tensor.FromSlice(arena[off:off+n], p.W.Shape...)
		off += n
	}
}

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Layer is a differentiable module.
type Layer interface {
	// Forward computes the output for x. train toggles
	// batch-statistics and dropout behaviour.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes d(loss)/d(output) and returns
	// d(loss)/d(input), accumulating parameter gradients.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params lists trainable parameters (empty for stateless layers).
	Params() []*Param
}

// ParamCount sums elements across a parameter list.
func ParamCount(params []*Param) int {
	n := 0
	for _, p := range params {
		n += p.W.Len()
	}
	return n
}

// ZeroGrads clears all gradients.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}
