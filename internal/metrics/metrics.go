// Package metrics implements the evaluation measures the paper
// reports: the per-class intersection-over-union and its mean (mIOU)
// computed from a confusion matrix, pixel accuracy, plus the paper's
// scaling efficiency and an arithmetic mean.
package metrics

import "fmt"

// Confusion is a K×K confusion matrix over class labels; rows are
// ground truth, columns are predictions.
type Confusion struct {
	K int
	M []int64
}

// NewConfusion creates a zeroed K-class matrix.
func NewConfusion(k int) *Confusion {
	if k <= 0 {
		panic(fmt.Sprintf("metrics: %d classes", k))
	}
	return &Confusion{K: k, M: make([]int64, k*k)}
}

// Update accumulates pixel pairs, skipping ground-truth pixels with
// the ignore label (VOC's void class, 255).
func (c *Confusion) Update(gt, pred []int32, ignore int32) {
	if len(gt) != len(pred) {
		panic(fmt.Sprintf("metrics: %d gt pixels vs %d predictions", len(gt), len(pred)))
	}
	for i := range gt {
		g := gt[i]
		if g == ignore {
			continue
		}
		p := pred[i]
		if g < 0 || int(g) >= c.K || p < 0 || int(p) >= c.K {
			panic(fmt.Sprintf("metrics: label pair (%d,%d) outside %d classes", g, p, c.K))
		}
		c.M[int(g)*c.K+int(p)]++
	}
}

// Merge adds another confusion matrix (for multi-rank evaluation).
func (c *Confusion) Merge(o *Confusion) {
	if c.K != o.K {
		panic(fmt.Sprintf("metrics: merge %d-class into %d-class", o.K, c.K))
	}
	for i, v := range o.M {
		c.M[i] += v
	}
}

// Total returns the number of counted pixels.
func (c *Confusion) Total() int64 {
	var t int64
	for _, v := range c.M {
		t += v
	}
	return t
}

// IOU returns class k's intersection-over-union and whether the class
// appears at all (in truth or prediction).
func (c *Confusion) IOU(k int) (float64, bool) {
	tp := c.M[k*c.K+k]
	var fn, fp int64
	for j := 0; j < c.K; j++ {
		if j != k {
			fn += c.M[k*c.K+j]
			fp += c.M[j*c.K+k]
		}
	}
	union := tp + fn + fp
	if union == 0 {
		return 0, false
	}
	return float64(tp) / float64(union), true
}

// MeanIOU averages IOU over classes that appear — the paper's "mIOU".
func (c *Confusion) MeanIOU() float64 {
	sum, n := 0.0, 0
	for k := 0; k < c.K; k++ {
		if iou, ok := c.IOU(k); ok {
			sum += iou
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FreqWeightedIOU weights each class's IOU by its pixel frequency —
// the fwIOU segmentation papers report alongside mIOU.
func (c *Confusion) FreqWeightedIOU() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	sum := 0.0
	for k := 0; k < c.K; k++ {
		iou, ok := c.IOU(k)
		if !ok {
			continue
		}
		var freq int64
		for j := 0; j < c.K; j++ {
			freq += c.M[k*c.K+j]
		}
		sum += float64(freq) / float64(total) * iou
	}
	return sum
}

// PixelAccuracy is the fraction of counted pixels predicted correctly.
func (c *Confusion) PixelAccuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	var correct int64
	for k := 0; k < c.K; k++ {
		correct += c.M[k*c.K+k]
	}
	return float64(correct) / float64(total)
}

// ScalingEfficiency is the paper's headline metric: measured
// throughput at p workers relative to p× the single-worker rate.
func ScalingEfficiency(throughput1, throughputP float64, p int) float64 {
	if p <= 0 || throughput1 <= 0 {
		panic("metrics: invalid scaling-efficiency inputs")
	}
	return throughputP / (throughput1 * float64(p))
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
