package tensor

import (
	"fmt"
	"math"
)

// SoftmaxCrossEntropyWS computes the mean pixelwise cross-entropy of
// logits [N,K,H,W] against integer labels (length N·H·W, values in
// [0,K) or ignore), and the gradient w.r.t. the logits. Pixels with
// the ignore label (PASCAL VOC uses 255 for "void") contribute
// nothing to loss or gradient — matching DeepLab's loss exactly.
//
// The gradient is drawn from ws (heap when nil) and samples fan out
// over ws's worker budget. On one worker it folds the samples' losses
// in order as it goes and allocates nothing; a wider fan-out keeps
// per-sample partials on the heap and folds them in the same order, so
// the loss is bit-identical at any budget.
func SoftmaxCrossEntropyWS(logits *Tensor, labels []int32, ignore int32, ws *Workspace) (float64, *Tensor) {
	n, k, h, w := logits.Dim(0), logits.Dim(1), logits.Dim(2), logits.Dim(3)
	if len(labels) != n*h*w {
		panic(fmt.Sprintf("tensor: %d labels for %d pixels", len(labels), n*h*w))
	}
	dlogits := ws.Get(n, k, h, w) // zeroed: ignored pixels contribute 0

	var totalLoss float64
	var totalValid int
	if deg := ws.degree(n); deg <= 1 {
		totalLoss, totalValid = softmaxCERows(logits, dlogits, labels, ignore, 0, n)
	} else {
		losses := make([]float64, n)
		valids := make([]int, n)
		parallelOver(deg, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				losses[i], valids[i] = softmaxCERows(logits, dlogits, labels, ignore, i, i+1)
			}
		})
		for i := range losses {
			totalLoss += losses[i]
			totalValid += valids[i]
		}
	}
	if totalValid == 0 {
		return 0, dlogits
	}
	inv := float32(1) / float32(totalValid)
	dlogits.Scale(inv)
	return totalLoss / float64(totalValid), dlogits
}

// softmaxCERows writes the logit gradient of samples [lo,hi) and
// returns their summed loss and valid-pixel count. Each sample's loss
// accumulates from zero over its pixels and is then added to the sum in
// sample order — the fold SoftmaxCrossEntropyWS's parallel path
// reproduces from one-sample calls.
func softmaxCERows(logits, dlogits *Tensor, labels []int32, ignore int32, lo, hi int) (loss float64, valid int) {
	k, spatial := logits.Dim(1), logits.Dim(2)*logits.Dim(3)
	var buf [32]float64 // VOC's 21 classes fit: no allocation
	probs := buf[:]
	if k > len(buf) {
		probs = make([]float64, k)
	}
	for i := lo; i < hi; i++ {
		base := i * k * spatial
		sampleLoss := 0.0
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
			sampleLoss -= math.Log(probs[lbl]/sum + 1e-30)
			valid++
			for c := 0; c < k; c++ {
				g := probs[c] / sum
				if int32(c) == lbl {
					g -= 1
				}
				dlogits.Data[base+c*spatial+p] = float32(g)
			}
		}
		loss += sampleLoss
	}
	return loss, valid
}

// ArgmaxClass reduces logits [N,K,H,W] to predicted labels (N·H·W).
func ArgmaxClass(logits *Tensor) []int32 {
	n, h, w := logits.Dim(0), logits.Dim(2), logits.Dim(3)
	return ArgmaxClassInto(logits, make([]int32, n*h*w), nil)
}

// ArgmaxClassInto is ArgmaxClass writing into a caller-owned buffer
// of exactly N·H·W labels — the pooled inference path's variant —
// fanning samples out over ws's worker budget (ws supplies no memory).
// On the serial path (one worker) it allocates nothing. Returns out.
//
// Pinned by train.TestEvalAllocBudget/ArgmaxClassInto.
func ArgmaxClassInto(logits *Tensor, out []int32, ws *Workspace) []int32 {
	n, k, h, w := logits.Dim(0), logits.Dim(1), logits.Dim(2), logits.Dim(3)
	if len(out) != n*h*w {
		panic(fmt.Sprintf("tensor: argmax output %d labels for [%d,%d,%d,%d] logits", len(out), n, k, h, w))
	}
	if deg := ws.degree(n); deg <= 1 {
		argmaxRows(logits, out, 0, n)
	} else {
		parallelOver(deg, n, func(lo, hi int) { argmaxRows(logits, out, lo, hi) })
	}
	return out
}

// argmaxRows is ArgmaxClassInto's per-worker body over samples [lo,hi).
func argmaxRows(logits *Tensor, out []int32, lo, hi int) {
	k, spatial := logits.Dim(1), logits.Dim(2)*logits.Dim(3)
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
}
