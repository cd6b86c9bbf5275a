package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"segscale/internal/tensor"
)

// pairSync returns two Sync callbacks that rendezvous and sum their
// buffers — a two-rank allreduce without the transport machinery, so
// this test isolates the SyncBN *math*.
func pairSync() (a, b func([]float64)) {
	type slot struct {
		buf  []float64
		done chan struct{}
	}
	exch := make(chan *slot)
	mk := func() func([]float64) {
		return func(buf []float64) {
			s := &slot{buf: buf, done: make(chan struct{})}
			select {
			case exch <- s: // first arrival parks
				<-s.done
			case other := <-exch: // second arrival sums for both
				for i := range buf {
					sum := buf[i] + other.buf[i]
					buf[i] = sum
					other.buf[i] = sum
				}
				close(other.done)
			}
		}
	}
	return mk(), mk()
}

// TestSyncBNMatchesBigBatch is the defining property of synchronized
// batch norm: two ranks, each normalising its half batch with synced
// statistics, must produce bit-near-identical outputs and input
// gradients to one batch-norm over the concatenated batch.
func TestSyncBNMatchesBigBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const c, h, w = 3, 4, 4
	xa := tensor.Randn(rng, 1, 2, c, h, w) // rank A's half
	xb := tensor.Randn(rng, 1, 2, c, h, w) // rank B's half
	douta := tensor.Randn(rng, 1, 2, c, h, w)
	doutb := tensor.Randn(rng, 1, 2, c, h, w)

	// Reference: one BN over the concatenated batch of 4.
	ref := laidOut(NewBatchNorm2D("ref", c))
	xFull := tensor.New(4, c, h, w)
	copy(xFull.Data[:xa.Len()], xa.Data)
	copy(xFull.Data[xa.Len():], xb.Data)
	doutFull := tensor.New(4, c, h, w)
	copy(doutFull.Data[:douta.Len()], douta.Data)
	copy(doutFull.Data[douta.Len():], doutb.Data)
	outFull := ref.Forward(xFull, true)
	dxFull := ref.Backward(doutFull)

	// SyncBN: two replicas with rendezvous-summing callbacks, run
	// concurrently like real ranks.
	bnA := laidOut(NewBatchNorm2D("a", c))
	bnB := laidOut(NewBatchNorm2D("b", c))
	sa, sb := pairSync()
	bnA.Sync = sa
	bnB.Sync = sb

	var outA, outB, dxA, dxB *tensor.Tensor
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		outA = bnA.Forward(xa, true)
		dxA = bnA.Backward(douta)
	}()
	go func() {
		defer wg.Done()
		outB = bnB.Forward(xb, true)
		dxB = bnB.Backward(doutb)
	}()
	wg.Wait()

	check := func(name string, got *tensor.Tensor, want []float32) {
		t.Helper()
		for i := range got.Data {
			if d := math.Abs(float64(got.Data[i] - want[i])); d > 1e-4 {
				t.Fatalf("%s[%d]: syncBN %g vs big-batch %g", name, i, got.Data[i], want[i])
			}
		}
	}
	check("outA", outA, outFull.Data[:outA.Len()])
	check("outB", outB, outFull.Data[outA.Len():])
	check("dxA", dxA, dxFull.Data[:dxA.Len()])
	check("dxB", dxB, dxFull.Data[dxA.Len():])

	// Parameter gradients: rank-local partial sums must add up to the
	// big-batch gradient (the allreduce-sum that AllreduceGrads then
	// averages).
	for ch := 0; ch < c; ch++ {
		sumGamma := bnA.gamma.G.Data[ch] + bnB.gamma.G.Data[ch]
		if d := math.Abs(float64(sumGamma - ref.gamma.G.Data[ch])); d > 1e-3 {
			t.Fatalf("dgamma[%d]: %g vs %g", ch, sumGamma, ref.gamma.G.Data[ch])
		}
		sumBeta := bnA.beta.G.Data[ch] + bnB.beta.G.Data[ch]
		if d := math.Abs(float64(sumBeta - ref.beta.G.Data[ch])); d > 1e-3 {
			t.Fatalf("dbeta[%d]: %g vs %g", ch, sumBeta, ref.beta.G.Data[ch])
		}
	}

	// Running statistics must agree too (both saw the global batch).
	for ch := 0; ch < c; ch++ {
		if d := math.Abs(bnA.RunningMean[ch] - ref.RunningMean[ch]); d > 1e-6 {
			t.Fatalf("running mean[%d]: %g vs %g", ch, bnA.RunningMean[ch], ref.RunningMean[ch])
		}
		if d := math.Abs(bnA.RunningVar[ch] - ref.RunningVar[ch]); d > 1e-6 {
			t.Fatalf("running var[%d]: %g vs %g", ch, bnA.RunningVar[ch], ref.RunningVar[ch])
		}
	}
}
