// Package tensor provides dense float32 tensors and the numerical
// kernels the real training path needs: matrix multiply, im2col
// convolution with stride/padding/dilation/groups (dilation is what
// makes DeepLab's atrous convolutions possible), pooling, bilinear
// resampling, and elementwise ops. Layout is row-major NCHW.
//
// Kernels parallelise across batch/row blocks with goroutines; with
// GOMAXPROCS=1 they degrade to serial loops with no allocation cost.
//
// Every multiply-add is written float32(x*y) + z (float64(…) in float64
// code): the explicit conversion forbids the compiler to fuse it into
// one rounding, which gc does on arm64 and ppc64le but not on amd64, so
// every kernel computes the same bits on every arch. `make fma-check`
// fails on a fused instruction in this package's listing.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense row-major float32 array with a shape.
type Tensor struct {
	Shape []int
	Data  []float32

	// Workspace bookkeeping: non-nil ws marks a tensor currently on
	// loan from an arena (see Workspace); wsIdx is its slot in the
	// arena's outstanding list. Zero values mean "plain heap tensor".
	ws    *Workspace
	wsIdx int
}

// numel returns the product of dims, validating non-negativity. The
// panic message is a constant: formatting shape would leak every
// variadic shape slice to the heap and cost allocation-free callers
// (Workspace.GetRaw, the kernels' pack-panel Gets) one allocation per
// call.
func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dim in shape")
		}
		n *= d
	}
	return n
}

// New allocates a zero tensor of the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, numel(shape))}
}

// FromSlice wraps data (not copied) with a shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	if numel(shape) != len(data) {
		panic(fmt.Sprintf("tensor: %v needs %d elements, got %d", shape, numel(shape), len(data)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Randn fills a new tensor with N(0, std²) values from rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// Full returns a tensor filled with v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Len returns the element count.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone deep-copies the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view with a new shape of equal element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if numel(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v to %v", t.Shape, shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// SameShape reports whether two tensors have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

func (t *Tensor) mustSameShape(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.Shape, o.Shape))
	}
}

// Add accumulates o into t elementwise.
func (t *Tensor) Add(o *Tensor) {
	t.mustSameShape(o, "add")
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// AddScaled accumulates s·o into t.
func (t *Tensor) AddScaled(s float32, o *Tensor) {
	t.mustSameShape(o, "addscaled")
	for i, v := range o.Data {
		t.Data[i] += float32(s * v)
	}
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// MulElem multiplies t by o elementwise.
func (t *Tensor) MulElem(o *Tensor) {
	t.mustSameShape(o, "mul")
	for i, v := range o.Data {
		t.Data[i] *= v
	}
}

// Sum returns the sum of all elements in float64.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the largest |element|.
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		if a := float32(math.Abs(float64(v))); a > m {
			m = a
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}

// At reads element (i0,i1,...) of a tensor of matching rank.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set writes element (i0,i1,...).
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d for shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + ix
	}
	return off
}
