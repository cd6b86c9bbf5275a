package tensor

import (
	"fmt"
	"math"
)

// SoftmaxCrossEntropy computes the mean pixelwise cross-entropy of
// logits [N,K,H,W] against integer labels (length N·H·W, values in
// [0,K) or ignore), and the gradient w.r.t. the logits. Pixels with
// the ignore label (PASCAL VOC uses 255 for "void") contribute
// nothing to loss or gradient — matching DeepLab's loss exactly.
func SoftmaxCrossEntropy(logits *Tensor, labels []int32, ignore int32) (float64, *Tensor) {
	return SoftmaxCrossEntropyWS(logits, labels, ignore, nil)
}

// SoftmaxCrossEntropyWS is SoftmaxCrossEntropy with the gradient drawn
// from ws. The per-batch float64 reduction buffers stay on the heap —
// they are a few dozen bytes and the arena pools float32 only.
func SoftmaxCrossEntropyWS(logits *Tensor, labels []int32, ignore int32, ws *Workspace) (float64, *Tensor) {
	n, k, h, w := logits.Dim(0), logits.Dim(1), logits.Dim(2), logits.Dim(3)
	if len(labels) != n*h*w {
		panic(fmt.Sprintf("tensor: %d labels for %d pixels", len(labels), n*h*w))
	}
	dlogits := ws.Get(n, k, h, w) // zeroed: ignored pixels contribute 0
	spatial := h * w

	losses := make([]float64, n)
	valids := make([]int, n)
	Parallel(n, func(lo, hi int) {
		probs := make([]float64, k)
		for i := lo; i < hi; i++ {
			base := i * k * spatial
			for p := 0; p < spatial; p++ {
				lbl := labels[i*spatial+p]
				if lbl == ignore {
					continue
				}
				if lbl < 0 || int(lbl) >= k {
					panic(fmt.Sprintf("tensor: label %d outside [0,%d)", lbl, k))
				}
				// Stable softmax over the class axis.
				maxv := float64(logits.Data[base+p])
				for c := 1; c < k; c++ {
					if v := float64(logits.Data[base+c*spatial+p]); v > maxv {
						maxv = v
					}
				}
				sum := 0.0
				for c := 0; c < k; c++ {
					e := math.Exp(float64(logits.Data[base+c*spatial+p]) - maxv)
					probs[c] = e
					sum += e
				}
				losses[i] -= math.Log(probs[lbl]/sum + 1e-30)
				valids[i]++
				for c := 0; c < k; c++ {
					g := probs[c] / sum
					if int32(c) == lbl {
						g -= 1
					}
					dlogits.Data[base+c*spatial+p] = float32(g)
				}
			}
		}
	})
	totalLoss, totalValid := 0.0, 0
	for i := range losses {
		totalLoss += losses[i]
		totalValid += valids[i]
	}
	if totalValid == 0 {
		return 0, dlogits
	}
	inv := float32(1) / float32(totalValid)
	dlogits.Scale(inv)
	return totalLoss / float64(totalValid), dlogits
}

// ArgmaxClass reduces logits [N,K,H,W] to predicted labels (N·H·W).
func ArgmaxClass(logits *Tensor) []int32 {
	n, h, w := logits.Dim(0), logits.Dim(2), logits.Dim(3)
	return ArgmaxClassInto(logits, make([]int32, n*h*w))
}

// ArgmaxClassInto is ArgmaxClass writing into a caller-owned buffer
// of exactly N·H·W labels — the pooled inference path's variant; its
// one allocation is the Parallel closure. Returns out.
//
// Pinned by train.TestEvalAllocBudget/ArgmaxClassInto.
func ArgmaxClassInto(logits *Tensor, out []int32) []int32 {
	n, k, h, w := logits.Dim(0), logits.Dim(1), logits.Dim(2), logits.Dim(3)
	spatial := h * w
	if len(out) != n*spatial {
		panic(fmt.Sprintf("tensor: argmax output %d labels for [%d,%d,%d,%d] logits", len(out), n, k, h, w))
	}
	Parallel(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			base := i * k * spatial
			for p := 0; p < spatial; p++ {
				best, bestC := logits.Data[base+p], 0
				for c := 1; c < k; c++ {
					if v := logits.Data[base+c*spatial+p]; v > best {
						best, bestC = v, c
					}
				}
				out[i*spatial+p] = int32(bestC)
			}
		}
	})
	return out
}
