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
	return &Param{Name: name, W: w, G: tensor.New(w.Shape...), Decay: decay}
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
