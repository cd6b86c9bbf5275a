package tensor

import "fmt"

// ConvSpec parameterises a 2-D convolution. Dilation > 1 gives the
// atrous convolutions DeepLab's ASPP is built from; Groups == C gives
// the depthwise convolutions of Xception-style separable convs.
type ConvSpec struct {
	Stride   int
	Pad      int
	Dilation int
	Groups   int
}

// Canon fills defaults (stride/dilation/groups of 1).
func (s ConvSpec) Canon() ConvSpec {
	if s.Stride == 0 {
		s.Stride = 1
	}
	if s.Dilation == 0 {
		s.Dilation = 1
	}
	if s.Groups == 0 {
		s.Groups = 1
	}
	return s
}

// ConvOutSize returns the output spatial size for one axis.
func ConvOutSize(in, k, stride, pad, dilation int) int {
	eff := (k-1)*dilation + 1
	out := (in+2*pad-eff)/stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("tensor: conv output size %d (in=%d k=%d s=%d p=%d d=%d)", out, in, k, stride, pad, dilation))
	}
	return out
}

// SamePad returns the padding that preserves spatial size for odd
// kernel k at stride 1 and the given dilation — DeepLab's atrous
// convolutions use rate·(k−1)/2.
func SamePad(k, dilation int) int {
	if k%2 == 0 {
		panic("tensor: SamePad needs odd kernel")
	}
	return dilation * (k - 1) / 2
}

func convCheck(x, w *Tensor, s ConvSpec) (n, c, h, wd, f, cg, kh, kw, oh, ow int) {
	if len(x.Shape) != 4 || len(w.Shape) != 4 {
		panic(fmt.Sprintf("tensor: conv needs NCHW x and FCKK w, got %v, %v", x.Shape, w.Shape))
	}
	n, c, h, wd = x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	f, cg, kh, kw = w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	if c%s.Groups != 0 || f%s.Groups != 0 {
		panic(fmt.Sprintf("tensor: groups=%d does not divide C=%d/F=%d", s.Groups, c, f))
	}
	if cg != c/s.Groups {
		panic(fmt.Sprintf("tensor: weight channel dim %d, want C/groups=%d", cg, c/s.Groups))
	}
	oh = ConvOutSize(h, kh, s.Stride, s.Pad, s.Dilation)
	ow = ConvOutSize(wd, kw, s.Stride, s.Pad, s.Dilation)
	return
}

// validRange returns the output indices [lo, hi) along one axis whose
// input coordinate o·stride + off lands inside [0, in): the taps of a
// padded convolution that read real input rather than padding.
func validRange(out, in, off, stride int) (lo, hi int) {
	if off < 0 {
		lo = min(out, (stride-1-off)/stride)
	}
	if last := in - 1 - off; last >= 0 {
		hi = min(out, last/stride+1)
	}
	return lo, max(lo, hi)
}

// im2col expands one sample's channel group into a [cg·kh·kw, oh·ow]
// matrix held in col (which must be pre-sized). Each tap's valid
// output rectangle is computed once: the rows and columns outside it
// are cleared, the inside is copied (a gather at stride > 1).
func im2col(x *Tensor, sample, chanLo, cg int, kh, kw, oh, ow int, s ConvSpec, col *Tensor) {
	h, wd := x.Dim(2), x.Dim(3)
	spatial := oh * ow
	xBase := (sample*x.Dim(1) + chanLo) * h * wd
	for cc := 0; cc < cg; cc++ {
		chOff := xBase + cc*h*wd
		for ky := 0; ky < kh; ky++ {
			offY := ky*s.Dilation - s.Pad
			oyLo, oyHi := validRange(oh, h, offY, s.Stride)
			for kx := 0; kx < kw; kx++ {
				offX := kx*s.Dilation - s.Pad
				oxLo, oxHi := validRange(ow, wd, offX, s.Stride)
				yHi := oyHi
				if oxLo == oxHi {
					yHi = oyLo // every column reads padding
				}
				row := col.Data[((cc*kh+ky)*kw+kx)*spatial:][:spatial]
				clear(row[:oyLo*ow])
				clear(row[yHi*ow:])
				for oy := oyLo; oy < yHi; oy++ {
					dst := row[oy*ow : oy*ow+ow]
					src := x.Data[chOff+(oy*s.Stride+offY)*wd:][:wd]
					clear(dst[:oxLo])
					clear(dst[oxHi:])
					if s.Stride == 1 {
						copy(dst[oxLo:oxHi], src[oxLo+offX:])
						continue
					}
					for ox := oxLo; ox < oxHi; ox++ {
						dst[ox] = src[ox*s.Stride+offX]
					}
				}
			}
		}
	}
}

// col2im scatters a [cg·kh·kw, oh·ow] gradient matrix back into dx,
// accumulating overlaps over each tap's valid output rectangle only.
func col2im(dx *Tensor, sample, chanLo, cg int, kh, kw, oh, ow int, s ConvSpec, col *Tensor) {
	h, wd := dx.Dim(2), dx.Dim(3)
	spatial := oh * ow
	dxBase := (sample*dx.Dim(1) + chanLo) * h * wd
	for cc := 0; cc < cg; cc++ {
		chOff := dxBase + cc*h*wd
		for ky := 0; ky < kh; ky++ {
			offY := ky*s.Dilation - s.Pad
			oyLo, oyHi := validRange(oh, h, offY, s.Stride)
			for kx := 0; kx < kw; kx++ {
				offX := kx*s.Dilation - s.Pad
				oxLo, oxHi := validRange(ow, wd, offX, s.Stride)
				if oxLo == oxHi {
					continue // every column reads padding
				}
				row := col.Data[((cc*kh+ky)*kw+kx)*spatial:][:spatial]
				for oy := oyLo; oy < oyHi; oy++ {
					src := row[oy*ow+oxLo : oy*ow+oxHi]
					dst := dx.Data[chOff+(oy*s.Stride+offY)*wd:][:wd]
					if s.Stride == 1 {
						d := dst[oxLo+offX:][:len(src)]
						for j, v := range src {
							d[j] += v
						}
						continue
					}
					for j, v := range src {
						dst[(oxLo+j)*s.Stride+offX] += v
					}
				}
			}
		}
	}
}

// Conv2DWS computes the grouped, dilated 2-D convolution of x [N,C,H,W]
// with w [F, C/groups, KH, KW], returning [N,F,OH,OW]. It draws the
// output and all internal scratch from ws (heap when nil), fanning
// samples out over ws's worker budget.
// With a warm workspace the call is allocation-free on the serial path
// (one worker); the returned tensor is owned by ws and valid until its
// Reset.
//
// Pinned at zero allocations on the serial path by
// TestConv2DWorkspaceZeroAllocs and TestWorkspaceBudgetZeroAllocs.
func Conv2DWS(x, w *Tensor, spec ConvSpec, ws *Workspace) *Tensor {
	s := spec.Canon()
	n, _, _, _, f, cg, kh, kw, oh, ow := convCheck(x, w, s)
	out := ws.GetRaw(n, f, oh, ow) // every element written below
	fg := f / s.Groups
	deg := ws.degree(n)
	if deg <= 1 {
		conv2DSamples(x, w, out, s, 0, n, fg, cg, kh, kw, oh, ow, ws)
		return out
	}
	parallelOver(deg, n, func(lo, hi int) {
		conv2DSamples(x, w, out, s, lo, hi, fg, cg, kh, kw, oh, ow, ws)
	})
	return out
}

// conv2DSamples runs the forward for samples [lo,hi), lowered by the
// convolution's geometry (see pointwise and depthwise). The general
// path is im2col + GEMM; a pointwise conv hands the GEMM x's
// [cg, H·W] slab directly, since its im2col would be an exact copy.
// The matmul is invoked through its raw row-worker so no header
// tensors are built per call.
func conv2DSamples(x, w, out *Tensor, s ConvSpec, lo, hi, fg, cg, kh, kw, oh, ow int, ws *Workspace) {
	slab := pointwise(s, kh, kw)
	if !slab && depthwise(cg, fg) {
		depthwiseForward(x, w, out, s, lo, hi, kh, kw, oh, ow, ws)
		return
	}
	c, f := x.Dim(1), out.Dim(1)
	spatial := oh * ow
	ckk := cg * kh * kw
	var col *Tensor
	if !slab {
		col = ws.GetRaw(ckk, spatial) // im2col writes every element
	}
	for i := lo; i < hi; i++ {
		for g := 0; g < s.Groups; g++ {
			var b []float32
			if slab {
				b = x.Data[(i*c+g*cg)*spatial : (i*c+(g+1)*cg)*spatial]
			} else {
				im2col(x, i, g*cg, cg, kh, kw, oh, ow, s, col)
				b = col.Data
			}
			wSlab := w.Data[g*fg*ckk : (g+1)*fg*ckk]
			outSlab := out.Data[(i*f+g*fg)*spatial : (i*f+(g+1)*fg)*spatial]
			matmulRows(outSlab, wSlab, b, ckk, spatial, 0, fg, false, false)
		}
	}
	ws.Put(col)
}

// pointwise reports a 1×1, stride-1, unpadded convolution: its im2col
// matrix is the input slab itself, so the GEMMs run on x and dx in
// place. (A strided 1×1 conv samples the input and stays general.)
func pointwise(s ConvSpec, kh, kw int) bool {
	return kh == 1 && kw == 1 && s.Stride == 1 && s.Pad == 0
}

// depthwise reports one input and one output channel per group: every
// GEMM would be a single row, so the taps are applied directly.
func depthwise(cg, fg int) bool {
	return cg == 1 && fg == 1
}

// padPlane copies an h×wd plane into the interior of a (h+2p)×pw
// padded plane, leaving its border as it is.
func padPlane(dst, src []float32, h, wd, pw, p int) {
	for y := 0; y < h; y++ {
		copy(dst[(y+p)*pw+p:][:wd], src[y*wd:(y+1)*wd])
	}
}

// depthwiseForward runs a depthwise conv for samples [lo,hi) as direct
// taps over a zero-padded copy of each (sample, channel) plane. Every
// output folds its taps from +0 in (ky, kx) order — the order and the
// operands of the one-row GEMM over im2col, padding zeros included —
// so NaN, ±Inf and −0 propagate as they did through the GEMM.
func depthwiseForward(x, w, out *Tensor, s ConvSpec, lo, hi, kh, kw, oh, ow int, ws *Workspace) {
	c, h, wd := x.Dim(1), x.Dim(2), x.Dim(3)
	pw := wd + 2*s.Pad
	xpad := ws.Get(h+2*s.Pad, pw) // zeroed: only the interior is ever rewritten
	taps := kh * kw
	for i := lo; i < hi; i++ {
		for ch := 0; ch < c; ch++ {
			plane := i*c + ch
			padPlane(xpad.Data, x.Data[plane*h*wd:(plane+1)*h*wd], h, wd, pw, s.Pad)
			o := out.Data[plane*oh*ow : (plane+1)*oh*ow]
			clear(o)
			for t, wv := range w.Data[ch*taps : (ch+1)*taps] {
				base := (t/kw)*s.Dilation*pw + (t%kw)*s.Dilation
				for oy := 0; oy < oh; oy++ {
					orow := o[oy*ow : (oy+1)*ow]
					src := xpad.Data[base+oy*s.Stride*pw:]
					if s.Stride == 1 {
						src = src[:ow]
						for ox, xv := range src {
							orow[ox] += float32(wv * xv)
						}
						continue
					}
					for ox := range orow {
						orow[ox] += float32(wv * src[ox*s.Stride])
					}
				}
			}
		}
	}
	ws.Put(xpad)
}

// Conv2DBackwardWS returns gradients (dx, dw) of Conv2DWS given
// upstream gradient dout [N,F,OH,OW], drawing outputs and scratch from
// ws (heap when nil) and fanning out over ws's worker budget. It is
// Conv2DBackwardAccWS with the weight gradient stored into a fresh
// workspace tensor rather than added into a caller's.
//
// Pinned at zero allocations on the serial path by
// TestConv2DWorkspaceZeroAllocs and TestWorkspaceBudgetZeroAllocs.
func Conv2DBackwardWS(x, w, dout *Tensor, spec ConvSpec, ws *Workspace) (dx, dw *Tensor) {
	dw = ws.GetRaw(w.Shape...) // every element written by the fold
	return conv2DBackward(x, w, dout, spec, dw.Data, false, ws), dw
}

// Conv2DBackwardAccWS returns the input gradient dx of Conv2DWS given
// upstream gradient dout [N,F,OH,OW], and adds the weight gradient
// into g, which has w's shape — a layer passes its parameter's
// long-lived gradient, so no weight-sized temporary is drawn from ws.
// g ends bit for bit where adding Conv2DBackwardWS's dw into it would
// leave it.
//
// Weight gradients fold their samples in ascending order. At one
// worker the samples run straight into the destination: sample 0's
// GEMM or taps store and each later one adds its register sums. With
// more workers each sample's dW lands in its own partial, and the
// partials merge in ascending sample order with the element range
// split across workers. Every element thus folds its samples in the
// one-worker order, bit-identical at any worker count. (A pairwise
// tree reduction was rejected: it changes float associativity.)
//
// Pinned at zero allocations on the serial path by
// TestConv2DWorkspaceZeroAllocs.
func Conv2DBackwardAccWS(x, w, dout, g *Tensor, spec ConvSpec, ws *Workspace) *Tensor {
	if len(g.Data) != len(w.Data) {
		panic(fmt.Sprintf("tensor: conv backward gradient %v, want weight shape %v", g.Shape, w.Shape))
	}
	return conv2DBackward(x, w, dout, spec, g.Data, true, ws)
}

// conv2DBackward is the conv backward both entry points share: it
// returns dx and folds the samples' weight gradients into dw — stored,
// or added with add set.
func conv2DBackward(x, w, dout *Tensor, spec ConvSpec, dw []float32, add bool, ws *Workspace) *Tensor {
	s := spec.Canon()
	n, c, h, wd, f, cg, kh, kw, oh, ow := convCheck(x, w, s)
	if dout.Dim(0) != n || dout.Dim(1) != f || dout.Dim(2) != oh || dout.Dim(3) != ow {
		panic(fmt.Sprintf("tensor: conv backward dout %v, want [%d %d %d %d]", dout.Shape, n, f, oh, ow))
	}
	dx := ws.Get(n, c, h, wd) // zeroed: col2im accumulates overlaps
	fg := f / s.Groups
	psz := len(dw)
	if ws.degree(n) <= 1 {
		// Fold in place. Adding the samples into a live dw one by one
		// would reassociate g + (p0 + p1) as (g + p0) + p1, so the add
		// form above one sample folds into one sum and adds that.
		dst, sum := dw, (*Tensor)(nil)
		if add && n > 1 {
			sum = ws.GetRaw(w.Shape...) // sample 0 stores every element
			dst, add = sum.Data, false
		}
		convBackwardSamples(x, w, dout, dx, dst, 0, add, s, 0, n, fg, cg, kh, kw, oh, ow, ws)
		if sum != nil {
			mergeSamplePartials(dw, sum.Data, 1, 0, psz, true)
			ws.Put(sum)
		}
		return dx
	}
	partials := ws.GetRaw(n, f, cg, kh, kw)
	pd := partials.Data
	parallelOver(ws.degree(n), n, func(lo, hi int) {
		convBackwardSamples(x, w, dout, dx, pd, psz, false, s, lo, hi, fg, cg, kh, kw, oh, ow, ws)
	})
	if deg := ws.degree(psz); deg <= 1 {
		mergeSamplePartials(dw, pd, n, 0, psz, add)
	} else {
		parallelOver(deg, psz, func(lo, hi int) {
			mergeSamplePartials(dw, pd, n, lo, hi, add)
		})
	}
	ws.Put(partials)
	return dx
}

// convBackwardSamples computes dx rows and the weight gradients of
// samples [lo,hi). Sample i's dW goes to dw[i·stride:]: with a nonzero
// stride each sample owns a partial and stores into it, so workers
// never race; with stride 0 every sample folds into the same weight
// slice, sample 0 adding to it when add0 is set and storing otherwise,
// and each later sample adding.
//
// It is lowered like the forward: a pointwise conv runs both GEMMs on
// the x and dx slabs directly, accumulating dx onto its zeroed slab —
// the +0 + dcol that col2im computed — and a depthwise conv applies
// its taps directly.
func convBackwardSamples(x, w, dout, dx *Tensor, dw []float32, stride int, add0 bool, s ConvSpec, lo, hi, fg, cg, kh, kw, oh, ow int, ws *Workspace) {
	slab := pointwise(s, kh, kw)
	if !slab && depthwise(cg, fg) {
		depthwiseBackward(x, w, dout, dx, dw, stride, add0, s, lo, hi, kh, kw, oh, ow, ws)
		return
	}
	c, f := x.Dim(1), dout.Dim(1)
	spatial := oh * ow
	ckk := cg * kh * kw
	var col, dcol *Tensor
	if !slab {
		col = ws.GetRaw(ckk, spatial)  // im2col writes every element
		dcol = ws.GetRaw(ckk, spatial) // fully written by the AT matmul
	}
	for i := lo; i < hi; i++ {
		pbase, add := i*stride, add0 || stride == 0 && i > 0
		for g := 0; g < s.Groups; g++ {
			doutSlab := dout.Data[(i*f+g*fg)*spatial : (i*f+(g+1)*fg)*spatial]
			wSlab := w.Data[g*fg*ckk : (g+1)*fg*ckk]
			dwSlab := dw[pbase+g*fg*ckk : pbase+(g+1)*fg*ckk]
			if slab {
				xSlab := x.Data[(i*c+g*cg)*spatial : (i*c+(g+1)*cg)*spatial]
				dxSlab := dx.Data[(i*c+g*cg)*spatial : (i*c+(g+1)*cg)*spatial]
				matmulRows(dwSlab, doutSlab, xSlab, spatial, ckk, 0, fg, true, add)
				matmulATRows(dxSlab, wSlab, doutSlab, fg, ckk, spatial, 0, ckk, true)
				continue
			}
			im2col(x, i, g*cg, cg, kh, kw, oh, ow, s, col)
			// dW_i = dout_i · colᵀ
			matmulRows(dwSlab, doutSlab, col.Data, spatial, ckk, 0, fg, true, add)
			// dcol = wᵀ · dout_i
			matmulATRows(dcol.Data, wSlab, doutSlab, fg, ckk, spatial, 0, ckk, false)
			col2im(dx, i, g*cg, cg, kh, kw, oh, ow, s, dcol)
		}
	}
	ws.Put(dcol)
	ws.Put(col)
}

// depthwiseBackward is the depthwise conv's backward for samples
// [lo,hi), in the orders of the GEMMs it replaces: each dW tap folds
// dout·x from +0 over (oy, ox) ascending in a register and stores or
// adds it as convBackwardSamples says, and dx accumulates w·dout onto
// a zeroed padded plane in col2im's (tap, oy, ox) order before its
// interior is copied out.
func depthwiseBackward(x, w, dout, dx *Tensor, dw []float32, stride int, add0 bool, s ConvSpec, lo, hi, kh, kw, oh, ow int, ws *Workspace) {
	c, h, wd := x.Dim(1), x.Dim(2), x.Dim(3)
	ph, pw := h+2*s.Pad, wd+2*s.Pad
	xpad := ws.Get(ph, pw)    // zeroed: only the interior is ever rewritten
	dpad := ws.GetRaw(ph, pw) // cleared per plane below
	taps := kh * kw
	for i := lo; i < hi; i++ {
		add := add0 || stride == 0 && i > 0
		for ch := 0; ch < c; ch++ {
			plane := i*c + ch
			padPlane(xpad.Data, x.Data[plane*h*wd:(plane+1)*h*wd], h, wd, pw, s.Pad)
			clear(dpad.Data)
			d := dout.Data[plane*oh*ow : (plane+1)*oh*ow]
			dwc := dw[i*stride+ch*taps : i*stride+(ch+1)*taps]
			for t, wv := range w.Data[ch*taps : (ch+1)*taps] {
				base := (t/kw)*s.Dilation*pw + (t%kw)*s.Dilation
				var acc float32
				for oy := 0; oy < oh; oy++ {
					drow := d[oy*ow : (oy+1)*ow]
					off := base + oy*s.Stride*pw
					xrow, grow := xpad.Data[off:], dpad.Data[off:]
					if s.Stride == 1 {
						xrow, grow = xrow[:ow], grow[:ow]
						for ox, dv := range drow {
							acc += float32(dv * xrow[ox])
							grow[ox] += float32(wv * dv)
						}
						continue
					}
					for ox, dv := range drow {
						acc += float32(dv * xrow[ox*s.Stride])
						grow[ox*s.Stride] += float32(wv * dv)
					}
				}
				if add {
					dwc[t] += acc
				} else {
					dwc[t] = acc
				}
			}
			dst := dx.Data[plane*h*wd : (plane+1)*h*wd]
			for y := 0; y < h; y++ {
				copy(dst[y*wd:(y+1)*wd], dpad.Data[(y+s.Pad)*pw+s.Pad:])
			}
		}
	}
	ws.Put(dpad)
	ws.Put(xpad)
}

// mergeSamplePartials folds n per-sample partials into dst for the
// element range [lo,hi): each element's samples are summed in a
// register in ascending i, sum = src[e] + src[len(dst)+e] + …, and the
// sum is stored into dst[e], or added to it with add set. That is the
// same float32 operations, in the same order, as storing the sum and
// adding the stored tensor into dst afterwards, with one pass over dst
// fewer. Splitting by element keeps every element's fold order fixed,
// so the merge is bit-identical at any worker count.
func mergeSamplePartials(dst, src []float32, n, lo, hi int, add bool) {
	sz := len(dst)
	for e := lo; e < hi; e++ {
		sum := src[e]
		for i := 1; i < n; i++ {
			sum += src[i*sz+e]
		}
		if add {
			dst[e] += sum
		} else {
			dst[e] = sum
		}
	}
}
