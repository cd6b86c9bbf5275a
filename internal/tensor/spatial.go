package tensor

import (
	"fmt"
	"sync"
)

// GlobalAvgPoolWS reduces [N,C,H,W] to [N,C,1,1] — ASPP's image-level
// pooling branch — with the output drawn from ws (heap when nil).
func GlobalAvgPoolWS(x *Tensor, ws *Workspace) *Tensor {
	n, c := x.Dim(0), x.Dim(1)
	out := ws.GetRaw(n, c, 1, 1)
	if deg := ws.degree(n * c); deg <= 1 {
		avgPoolPlanes(x, out, 0, n*c)
	} else {
		parallelOver(deg, n*c, func(lo, hi int) { avgPoolPlanes(x, out, lo, hi) })
	}
	return out
}

// avgPoolPlanes is GlobalAvgPoolWS's per-worker body over planes
// [lo,hi).
func avgPoolPlanes(x, out *Tensor, lo, hi int) {
	hw := x.Dim(2) * x.Dim(3)
	inv := 1 / float32(hw)
	for i := lo; i < hi; i++ {
		var s float32
		for _, v := range x.Data[i*hw : (i+1)*hw] {
			s += v
		}
		out.Data[i] = s * inv
	}
}

// GlobalAvgPoolBackwardWS spreads dout [N,C,1,1] uniformly over the
// [N,C,h,w] input extent, with the gradient drawn from ws (heap when
// nil).
func GlobalAvgPoolBackwardWS(dout *Tensor, h, w int, ws *Workspace) *Tensor {
	n, c := dout.Dim(0), dout.Dim(1)
	dx := ws.GetRaw(n, c, h, w)
	if deg := ws.degree(n * c); deg <= 1 {
		avgPoolBackwardPlanes(dout, dx, 0, n*c)
	} else {
		parallelOver(deg, n*c, func(lo, hi int) { avgPoolBackwardPlanes(dout, dx, lo, hi) })
	}
	return dx
}

// avgPoolBackwardPlanes is GlobalAvgPoolBackwardWS's per-worker body
// over planes [lo,hi).
func avgPoolBackwardPlanes(dout, dx *Tensor, lo, hi int) {
	hw := dx.Dim(2) * dx.Dim(3)
	inv := 1 / float32(hw)
	for i := lo; i < hi; i++ {
		g := dout.Data[i] * inv
		row := dx.Data[i*hw : (i+1)*hw]
		for j := range row {
			row[j] = g
		}
	}
}

// bilinearAxis holds the precomputed resampling plan for one axis.
type bilinearAxis struct {
	lo, hi []int
	w      []float32
}

// bilinearCache memoises axis plans by (in, out): the plan is a pure
// function of the two lengths, and a training run resizes the same
// handful of shapes every step, so caching keeps the hot path from
// reallocating (and recomputing) them each call.
var bilinearCache sync.Map // [2]int → *bilinearAxis

func bilinearAxisFor(in, out int) *bilinearAxis {
	key := [2]int{in, out}
	if v, ok := bilinearCache.Load(key); ok {
		return v.(*bilinearAxis)
	}
	lo, hi, w := bilinearWeights(in, out)
	ax := &bilinearAxis{lo: lo, hi: hi, w: w}
	if v, loaded := bilinearCache.LoadOrStore(key, ax); loaded {
		return v.(*bilinearAxis)
	}
	return ax
}

// bilinearWeights returns the source indices and weights for resizing
// axis length `in` to `out` with align_corners=true semantics (what
// DeepLab's TensorFlow implementation uses).
func bilinearWeights(in, out int) (lo, hi []int, w []float32) {
	lo = make([]int, out)
	hi = make([]int, out)
	w = make([]float32, out)
	if out == 1 {
		return
	}
	scale := float64(in-1) / float64(out-1)
	for i := 0; i < out; i++ {
		src := float64(float64(i) * scale)
		l := int(src)
		if l >= in-1 {
			l = in - 2
			if l < 0 {
				l = 0
			}
		}
		h := l + 1
		if h >= in {
			h = in - 1
		}
		lo[i], hi[i] = l, h
		w[i] = float32(src - float64(l))
	}
	return
}

// BilinearResizeWS resamples [N,C,H,W] to [N,C,oh,ow], with the output
// drawn from ws (heap when nil) and the axis plans served from a
// process-wide cache.
func BilinearResizeWS(x *Tensor, oh, ow int, ws *Workspace) *Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: resize to %dx%d", oh, ow))
	}
	yax, xax := bilinearAxisFor(h, oh), bilinearAxisFor(w, ow)
	out := ws.GetRaw(n, c, oh, ow)
	if deg := ws.degree(n * c); deg <= 1 {
		resizePlanes(x, out, yax, xax, 0, n*c)
	} else {
		parallelOver(deg, n*c, func(lo, hi int) { resizePlanes(x, out, yax, xax, lo, hi) })
	}
	return out
}

// resizePlanes is BilinearResizeWS's per-worker body over planes
// [lo,hi).
func resizePlanes(x, out *Tensor, yax, xax *bilinearAxis, lo, hi int) {
	h, w, oh, ow := x.Dim(2), x.Dim(3), out.Dim(2), out.Dim(3)
	ylo, yhi, wy := yax.lo, yax.hi, yax.w
	xlo, xhi, wx := xax.lo, xax.hi, xax.w
	for i := lo; i < hi; i++ {
		in := x.Data[i*h*w : (i+1)*h*w]
		dst := out.Data[i*oh*ow : (i+1)*oh*ow]
		for oy := 0; oy < oh; oy++ {
			y0, y1, fy := ylo[oy], yhi[oy], wy[oy]
			for ox := 0; ox < ow; ox++ {
				x0, x1, fx := xlo[ox], xhi[ox], wx[ox]
				v00 := in[y0*w+x0]
				v01 := in[y0*w+x1]
				v10 := in[y1*w+x0]
				v11 := in[y1*w+x1]
				top := v00 + float32(fx*(v01-v00))
				bot := v10 + float32(fx*(v11-v10))
				dst[oy*ow+ox] = top + float32(fy*(bot-top))
			}
		}
	}
}

// BilinearResizeBackwardWS is the adjoint of BilinearResizeWS: it
// scatters dout [N,C,OH,OW] back onto an [N,C,h,w] gradient drawn from
// ws (heap when nil).
func BilinearResizeBackwardWS(dout *Tensor, h, w int, ws *Workspace) *Tensor {
	n, c, oh, ow := dout.Dim(0), dout.Dim(1), dout.Dim(2), dout.Dim(3)
	yax, xax := bilinearAxisFor(h, oh), bilinearAxisFor(w, ow)
	dx := ws.Get(n, c, h, w) // zeroed: the scatter accumulates
	if deg := ws.degree(n * c); deg <= 1 {
		resizeBackwardPlanes(dout, dx, yax, xax, 0, n*c)
	} else {
		parallelOver(deg, n*c, func(lo, hi int) { resizeBackwardPlanes(dout, dx, yax, xax, lo, hi) })
	}
	return dx
}

// resizeBackwardPlanes is BilinearResizeBackwardWS's per-worker body
// over planes [lo,hi).
func resizeBackwardPlanes(dout, dx *Tensor, yax, xax *bilinearAxis, lo, hi int) {
	h, w, oh, ow := dx.Dim(2), dx.Dim(3), dout.Dim(2), dout.Dim(3)
	ylo, yhi, wy := yax.lo, yax.hi, yax.w
	xlo, xhi, wx := xax.lo, xax.hi, xax.w
	for i := lo; i < hi; i++ {
		src := dout.Data[i*oh*ow : (i+1)*oh*ow]
		dst := dx.Data[i*h*w : (i+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			y0, y1, fy := ylo[oy], yhi[oy], wy[oy]
			for ox := 0; ox < ow; ox++ {
				x0, x1, fx := xlo[ox], xhi[ox], wx[ox]
				g := src[oy*ow+ox]
				dst[y0*w+x0] += float32(g * (1 - fy) * (1 - fx))
				dst[y0*w+x1] += float32(g * (1 - fy) * fx)
				dst[y1*w+x0] += float32(g * fy * (1 - fx))
				dst[y1*w+x1] += float32(g * fy * fx)
			}
		}
	}
}
