package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The convolution lowering oracle. Every convolution used to run
// im2col → GEMM → col2im, with A·Bᵀ products on a second, unpacked
// 4×4 dot-product kernel. Those bodies survive below, in test code
// only, as the definition the pointwise, depthwise and general paths
// must reproduce to the bit: forward, dx and dW, NaN payloads
// included.

// oracleIm2col is the per-element-bounds-checked im2col.
func oracleIm2col(x *Tensor, sample, chanLo, cg int, kh, kw, oh, ow int, s ConvSpec, col *Tensor) {
	_, _, h, wd := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	spatial := oh * ow
	xBase := (sample*x.Dim(1) + chanLo) * h * wd
	for cc := 0; cc < cg; cc++ {
		chOff := xBase + cc*h*wd
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := ((cc*kh+ky)*kw + kx) * spatial
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.Stride - s.Pad + ky*s.Dilation
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							col.Data[row+oy*ow+ox] = 0
						}
						continue
					}
					inRow := chOff + iy*wd
					outRow := row + oy*ow
					for ox := 0; ox < ow; ox++ {
						ix := ox*s.Stride - s.Pad + kx*s.Dilation
						if ix < 0 || ix >= wd {
							col.Data[outRow+ox] = 0
						} else {
							col.Data[outRow+ox] = x.Data[inRow+ix]
						}
					}
				}
			}
		}
	}
}

// oracleCol2im is the per-element-bounds-checked col2im.
func oracleCol2im(dx *Tensor, sample, chanLo, cg int, kh, kw, oh, ow int, s ConvSpec, col *Tensor) {
	h, wd := dx.Dim(2), dx.Dim(3)
	spatial := oh * ow
	dxBase := (sample*dx.Dim(1) + chanLo) * h * wd
	for cc := 0; cc < cg; cc++ {
		chOff := dxBase + cc*h*wd
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				row := ((cc*kh+ky)*kw + kx) * spatial
				for oy := 0; oy < oh; oy++ {
					iy := oy*s.Stride - s.Pad + ky*s.Dilation
					if iy < 0 || iy >= h {
						continue
					}
					inRow := chOff + iy*wd
					outRow := row + oy*ow
					for ox := 0; ox < ow; ox++ {
						ix := ox*s.Stride - s.Pad + kx*s.Dilation
						if ix >= 0 && ix < wd {
							dx.Data[inRow+ix] += col.Data[outRow+ox]
						}
					}
				}
			}
		}
	}
}

// oracleMatmulBTRows is the unpacked C = A·Bᵀ row worker.
func oracleMatmulBTRows(cd, ad, bd []float32, k, n, lo, hi int, accumulate bool) {
	i0 := lo
	for ; i0+4 <= hi; i0 += 4 {
		for j0 := 0; j0 < n; j0 += 4 {
			oracleDot4x4(cd[i0*n+j0:], n, ad[i0*k:], k, bd[j0*k:], k,
				4, min(4, n-j0), accumulate)
		}
	}
	if i0 < hi {
		for j0 := 0; j0 < n; j0 += 4 {
			oracleDot4x4(cd[i0*n+j0:], n, ad[i0*k:], k, bd[j0*k:], k,
				hi-i0, min(4, n-j0), accumulate)
		}
	}
}

// oracleDot4x4 accumulates an iw×jw tile of running dot products where
// both operands stream contiguously over k: C[r,q] (+)= Σ_p a[r,p]·b[q,p].
func oracleDot4x4(c []float32, cs int, a []float32, as int, b []float32, bs int, iw, jw int, acc bool) {
	if iw == 4 && jw == 4 {
		a0 := a[0*as : 0*as+as : 0*as+as]
		a1 := a[1*as : 1*as+as : 1*as+as]
		a2 := a[2*as : 2*as+as : 2*as+as]
		a3 := a[3*as : 3*as+as : 3*as+as]
		b0 := b[0*bs : 0*bs+bs : 0*bs+bs]
		b1 := b[1*bs : 1*bs+bs : 1*bs+bs]
		b2 := b[2*bs : 2*bs+bs : 2*bs+bs]
		b3 := b[3*bs : 3*bs+bs : 3*bs+bs]
		var s00, s01, s02, s03 float32
		var s10, s11, s12, s13 float32
		var s20, s21, s22, s23 float32
		var s30, s31, s32, s33 float32
		for p := 0; p < as; p++ {
			v0, v1, v2, v3 := b0[p], b1[p], b2[p], b3[p]
			av := a0[p]
			s00 += float32(av * v0)
			s01 += float32(av * v1)
			s02 += float32(av * v2)
			s03 += float32(av * v3)
			av = a1[p]
			s10 += float32(av * v0)
			s11 += float32(av * v1)
			s12 += float32(av * v2)
			s13 += float32(av * v3)
			av = a2[p]
			s20 += float32(av * v0)
			s21 += float32(av * v1)
			s22 += float32(av * v2)
			s23 += float32(av * v3)
			av = a3[p]
			s30 += float32(av * v0)
			s31 += float32(av * v1)
			s32 += float32(av * v2)
			s33 += float32(av * v3)
		}
		rows := [4][4]float32{
			{s00, s01, s02, s03},
			{s10, s11, s12, s13},
			{s20, s21, s22, s23},
			{s30, s31, s32, s33},
		}
		for r := 0; r < 4; r++ {
			crow := c[r*cs : r*cs+4]
			if acc {
				for q := 0; q < 4; q++ {
					crow[q] += rows[r][q]
				}
			} else {
				for q := 0; q < 4; q++ {
					crow[q] = rows[r][q]
				}
			}
		}
		return
	}
	for r := 0; r < iw; r++ {
		arow := a[r*as : r*as+as]
		crow := c[r*cs : r*cs+jw]
		for q := 0; q < jw; q++ {
			brow := b[q*bs : q*bs+as]
			var s float32
			for p, av := range arow {
				s += float32(av * brow[p])
			}
			if acc {
				crow[q] += s
			} else {
				crow[q] = s
			}
		}
	}
}

// oracleConv2D is the im2col → GEMM forward over every sample.
func oracleConv2D(x, w *Tensor, spec ConvSpec) *Tensor {
	s := spec.Canon()
	n, _, _, _, f, cg, kh, kw, oh, ow := convCheck(x, w, s)
	fg := f / s.Groups
	out := New(n, f, oh, ow)
	spatial := oh * ow
	ckk := cg * kh * kw
	col := New(ckk, spatial)
	for i := 0; i < n; i++ {
		for g := 0; g < s.Groups; g++ {
			oracleIm2col(x, i, g*cg, cg, kh, kw, oh, ow, s, col)
			wSlab := w.Data[g*fg*ckk : (g+1)*fg*ckk]
			outSlab := out.Data[(i*f+g*fg)*spatial : (i*f+(g+1)*fg)*spatial]
			matmulRows(outSlab, wSlab, col.Data, ckk, spatial, 0, fg, false, false)
		}
	}
	return out
}

// oracleConv2DBackward is the im2col → GEMM → col2im backward with the
// per-sample dW partials merged in ascending sample order.
func oracleConv2DBackward(x, w, dout *Tensor, spec ConvSpec) (dx, dw *Tensor) {
	s := spec.Canon()
	n, c, h, wd, f, cg, kh, kw, oh, ow := convCheck(x, w, s)
	fg := f / s.Groups
	dx = New(n, c, h, wd)
	dw = New(f, cg, kh, kw)
	partials := New(n, f, cg, kh, kw)
	spatial := oh * ow
	ckk := cg * kh * kw
	col, dcol := New(ckk, spatial), New(ckk, spatial)
	for i := 0; i < n; i++ {
		pbase := i * f * ckk
		for g := 0; g < s.Groups; g++ {
			oracleIm2col(x, i, g*cg, cg, kh, kw, oh, ow, s, col)
			doutSlab := dout.Data[(i*f+g*fg)*spatial : (i*f+(g+1)*fg)*spatial]
			wSlab := w.Data[g*fg*ckk : (g+1)*fg*ckk]
			dwSlab := partials.Data[pbase+g*fg*ckk : pbase+(g+1)*fg*ckk]
			oracleMatmulBTRows(dwSlab, doutSlab, col.Data, spatial, ckk, 0, fg, false)
			matmulATRows(dcol.Data, wSlab, doutSlab, fg, ckk, spatial, 0, ckk, false)
			oracleCol2im(dx, i, g*cg, cg, kh, kw, oh, ow, s, dcol)
		}
	}
	// The merge as a copy of sample 0 and one add pass per later sample.
	sz := len(dw.Data)
	copy(dw.Data, partials.Data[:sz])
	for i := 1; i < n; i++ {
		for e, v := range partials.Data[i*sz : (i+1)*sz] {
			dw.Data[e] += v
		}
	}
	return dx, dw
}

// nanOperands are multiplied at run time (a package variable is never
// constant-folded) to get the NaN the host's FPU generates.
var nanOperands = [2]float32{0, float32(math.Inf(1))}

// saltBits are the IEEE specials salted into the oracle's inputs: the
// host's generated NaN, ±Inf, ±0 and ± subnormals.
//
// There is one NaN pattern, the one 0·Inf produces, so a NaN anywhere
// in a result has exactly one correct bit pattern. With two patterns
// the survivor of NaN+NaN or NaN·NaN is the first operand of the
// instruction, and gc reorders the operands of commutative float ops
// per site: mul2x4's own accumulators disagree on it tile to tile. No
// Go kernel can promise which payload survives, so the oracle compares
// NaN by bits on inputs where that choice cannot show.
func saltBits() []uint32 {
	return []uint32{
		math.Float32bits(nanOperands[0] * nanOperands[1]),
		0x7f800000, 0xff800000,
		0x00000000, 0x80000000,
		0x00000001, 0x807fffff,
	}
}

// saltedTensor is a normal(0,1) tensor with roughly one element in
// 1/rate replaced by a saltBits special.
func saltedTensor(rng *rand.Rand, rate float64, shape ...int) *Tensor {
	salt := saltBits()
	t := randTensor(rng, shape...)
	for i := range t.Data {
		if rng.Float64() < rate {
			t.Data[i] = math.Float32frombits(salt[rng.Intn(len(salt))])
		}
	}
	return t
}

// dirtyWorkspace reclaims every buffer of ws and of the GEMM's panel
// pool and fills it with garbage, so a GetRaw destination that is not
// fully overwritten leaks into the result.
func dirtyWorkspace(ws *Workspace) {
	ws.Reset()
	for _, pool := range []*Workspace{ws, kernelScratch} {
		pool.mu.Lock()
		for _, free := range pool.free {
			for _, t := range free {
				d := t.Data[:cap(t.Data)]
				for i := range d {
					d[i] = math.Float32frombits(0x7fc0dead ^ uint32(i))
				}
			}
		}
		pool.mu.Unlock()
	}
}

// TestConvLoweringMatchesOracle pins every lowering to the im2col →
// GEMM → col2im oracle bit for bit — forward, dx and dW, and dW added
// into a gradient by Conv2DBackwardAccWS — on salted inputs through a
// dirtied workspace. It crosses depthwise, pointwise
// at groups 1 and 2, dense and grouped 3×3 convs with stride {1, 2},
// dilation {1, 2, 3}, pad {0, same, > same} and planes 1×1, 3×5 and
// 7×7, skipping geometries with no output; the 1×1 stride-2 conv (the
// down-sampling shortcut) is in the cross.
func TestConvLoweringMatchesOracle(t *testing.T) {
	const n = 3
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(1))
	for _, kd := range []struct {
		name         string
		c, f, k, grp int
	}{
		{"depthwise", 3, 3, 3, 3},
		{"pointwise", 4, 5, 1, 1},
		{"pointwise_g2", 4, 6, 1, 2},
		{"dense", 3, 4, 3, 1},
		{"grouped", 4, 6, 3, 2},
	} {
		for _, stride := range []int{1, 2} {
			for _, dil := range []int{1, 2, 3} {
				same := dil * (kd.k - 1) / 2
				pads := []int{0, same + 2}
				if same > 0 {
					pads = append(pads, same)
				}
				for _, pad := range pads {
					for _, plane := range [][2]int{{1, 1}, {3, 5}, {7, 7}} {
						h, wd := plane[0], plane[1]
						if eff := (kd.k-1)*dil + 1; h+2*pad < eff || wd+2*pad < eff {
							continue
						}
						name := fmt.Sprintf("%s/s%d_d%d_p%d_%dx%d", kd.name, stride, dil, pad, h, wd)
						s := ConvSpec{Stride: stride, Pad: pad, Dilation: dil, Groups: kd.grp}
						x := saltedTensor(rng, 0.03, n, kd.c, h, wd)
						w := saltedTensor(rng, 0.03, kd.f, kd.c/kd.grp, kd.k, kd.k)
						oh := ConvOutSize(h, kd.k, stride, pad, dil)
						ow := ConvOutSize(wd, kd.k, stride, pad, dil)
						dout := saltedTensor(rng, 0.03, n, kd.f, oh, ow)

						dirtyWorkspace(ws)
						requireBitIdentical(t, Conv2DWS(x, w, s, ws), oracleConv2D(x, w, s), name+" forward")
						dirtyWorkspace(ws)
						dx, dw := Conv2DBackwardWS(x, w, dout, s, ws)
						wantDx, wantDw := oracleConv2DBackward(x, w, dout, s)
						requireBitIdentical(t, dx, wantDx, name+" dx")
						requireBitIdentical(t, dw, wantDw, name+" dw")

						// The accumulating form adds the same dW into a
						// salted gradient: bit for bit a store then an Add.
						g := saltedTensor(rng, 0.03, w.Shape...)
						want := g.Clone()
						want.Add(wantDw)
						dirtyWorkspace(ws)
						requireBitIdentical(t, Conv2DBackwardAccWS(x, w, dout, g, s, ws), wantDx, name+" acc dx")
						requireBitIdentical(t, g, want, name+" acc dw")
					}
				}
			}
		}
	}
}

// TestMatMulBTMatchesOracle pins the packed A·Bᵀ product to the unpacked
// dot-product kernel it replaced, bit for bit, over every tile-remainder
// shape and the wide tile's shapes on salted inputs, accumulating and
// not.
func TestMatMulBTMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(m, k, n int) {
		a := saltedTensor(rng, 0.05, m, k)
		b := saltedTensor(rng, 0.05, n, k)
		for _, acc := range []bool{false, true} {
			base := saltedTensor(rng, 0.05, m, n)
			got, want := base.Clone(), base.Clone()
			MatMulBTInto(got, a, b, acc)
			oracleMatmulBTRows(want.Data, a.Data, b.Data, k, n, 0, m, acc)
			requireBitIdentical(t, got, want, fmt.Sprintf("matmulBT %dx%dx%d acc=%v", m, k, n, acc))
		}
	}
	for _, m := range edgeDims {
		for _, k := range edgeDims {
			for _, n := range edgeDims {
				check(m, k, n)
			}
		}
	}
	forWideShapes(check)
}
