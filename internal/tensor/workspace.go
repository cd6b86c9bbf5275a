package tensor

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
)

// Workspace is a size-class pooled tensor arena for the training hot
// path. Every tensor a forward/backward pass needs — activations,
// im2col buffers, gradients-in-flight — is drawn from the arena with
// Get and returned wholesale with Reset at the end of the step, so a
// steady-state training step performs (approximately) zero heap
// allocations: after the first step every Get is served from a free
// list.
//
// Buffers are bucketed by power-of-two capacity classes, so a request
// is served by any free buffer of the same class regardless of shape
// — the arena does not fragment across the many distinct activation
// shapes of a deep network.
//
// Usage contract:
//   - Get/GetRaw hand out tensors owned by the arena. They stay valid
//     until Reset; afterwards their backing arrays may be reused, so
//     holding a workspace tensor across Reset is a use-after-free bug.
//     Long-lived state (parameters, gradients, running statistics)
//     must not come from a workspace.
//   - Kernels never lend out a parameter-gradient buffer: a weight
//     gradient is added straight into the parameter's own long-lived
//     gradient (Conv2DBackwardAccWS), so what the arena holds across a
//     step is the activations kept for backward, not gradient
//     temporaries.
//   - Put returns one tensor early — kernel-internal scratch, or a
//     gradient once the layer it was passed to has consumed it
//     (nn.Sequential.Backward). Nothing may read a tensor after its
//     Put; it is optional — Reset reclaims everything outstanding.
//   - A nil *Workspace is valid and falls back to plain heap
//     allocation, so kernels take a workspace unconditionally and
//     callers opt in.
//
// The workspace also carries its owner's worker budget: a kernel that
// draws from it fans out over at most Workers goroutines (see
// SetWorkers), so each rank of a world splits the cores with its peers
// instead of every rank claiming all of them.
//
// All methods except SetWorkers are safe for concurrent use: the
// per-worker goroutines a kernel fans out share their rank's workspace
// under one mutex (the handful of Gets per kernel launch is far off
// the critical path).
type Workspace struct {
	mu      sync.Mutex
	free    map[uint][]*Tensor // capacity class (log2) → free tensors
	lent    []*Tensor          // outstanding tensors, reclaimed by Reset
	workers int                // kernel fan-out budget; 0 means GOMAXPROCS

	gets   uint64
	hits   uint64
	resets uint64
	pooled uint64 // total float32s owned by the arena (free + lent)
}

// NewWorkspace returns an empty arena.
func NewWorkspace() *Workspace {
	return &Workspace{free: make(map[uint][]*Tensor)}
}

// SetWorkers sets the budget of goroutines a kernel drawing from w fans
// out over; n <= 0 restores the default, GOMAXPROCS. A budget of 1 runs
// every kernel on its caller's goroutine, closure-free. Results are
// bit-identical at any budget. Call it between kernels, not
// concurrently with one.
func (w *Workspace) SetWorkers(n int) {
	w.workers = max(n, 0)
}

// Workers reports the budget: the SetWorkers value, or GOMAXPROCS when
// none is set or w is nil.
func (w *Workspace) Workers() int {
	if w == nil || w.workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w.workers
}

// degree reports how many workers a kernel drawing from w splits a
// range of size n over: the budget, capped at n.
func (w *Workspace) degree(n int) int {
	return min(w.Workers(), n)
}

// wsClassMin is the smallest pooled capacity; tiny requests all share
// one class so per-channel scratch vectors don't sprawl buckets.
const wsClassMin = 64

// wsClass returns the capacity class (log2 of the rounded-up size).
func wsClass(n int) uint {
	if n < wsClassMin {
		n = wsClassMin
	}
	return uint(bits.Len(uint(n - 1)))
}

// Get returns a zeroed tensor of the given shape from the arena (or
// the heap when w is nil). The tensor is valid until Reset.
func (w *Workspace) Get(shape ...int) *Tensor {
	if w == nil {
		return New(shape...)
	}
	t := w.GetRaw(shape...)
	for i := range t.Data {
		t.Data[i] = 0
	}
	return t
}

// GetRaw is Get without the zero fill, for destinations a kernel
// fully overwrites. The contents are whatever the previous borrower
// left behind.
func (w *Workspace) GetRaw(shape ...int) *Tensor {
	if w == nil {
		return New(shape...)
	}
	// Inline numel with a constant panic message: passing shape to a
	// formatting panic would leak it to the heap and cost the hot path
	// one allocation per Get for the variadic slice.
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("tensor: negative dim in workspace shape")
		}
		n *= d
	}
	class := wsClass(n)

	w.mu.Lock()
	w.gets++
	var t *Tensor
	if fl := w.free[class]; len(fl) > 0 {
		t = fl[len(fl)-1]
		w.free[class] = fl[:len(fl)-1]
		w.hits++
	} else {
		t = &Tensor{Data: make([]float32, 1<<class)}
		w.pooled += 1 << class
	}
	t.ws = w
	t.wsIdx = len(w.lent)
	w.lent = append(w.lent, t)
	w.mu.Unlock()

	t.Shape = append(t.Shape[:0], shape...)
	t.Data = t.Data[:cap(t.Data)][:n]
	return t
}

// Put returns one tensor to the free lists ahead of Reset. Tensors
// not owned by this workspace (heap tensors, or a double Put) are
// ignored, so unconditional Put in a nil-workspace code path is safe.
func (w *Workspace) Put(t *Tensor) {
	if w == nil || t == nil || t.ws != w {
		return
	}
	w.mu.Lock()
	w.release(t)
	w.mu.Unlock()
}

// release moves t from lent to its free list. Caller holds w.mu.
func (w *Workspace) release(t *Tensor) {
	last := len(w.lent) - 1
	if i := t.wsIdx; i >= 0 && i <= last && w.lent[i] == t {
		w.lent[i] = w.lent[last]
		w.lent[i].wsIdx = i
		w.lent = w.lent[:last]
	}
	t.ws = nil
	class := wsClass(cap(t.Data))
	w.free[class] = append(w.free[class], t)
}

// Reset reclaims every outstanding tensor. The step boundary calls it
// once all activations and scratch of the step are dead; the next
// step's Gets are then served allocation-free from the free lists.
func (w *Workspace) Reset() {
	if w == nil {
		return
	}
	w.mu.Lock()
	for _, t := range w.lent {
		t.ws = nil
		class := wsClass(cap(t.Data))
		w.free[class] = append(w.free[class], t)
	}
	w.lent = w.lent[:0]
	w.resets++
	w.mu.Unlock()
}

// WorkspaceStats is a point-in-time snapshot of arena behaviour.
type WorkspaceStats struct {
	// Gets counts Get/GetRaw calls; Hits counts those served from a
	// free list. A warmed-up steady state has Hits == Gets.
	Gets, Hits uint64
	// Outstanding is the number of tensors currently on loan.
	Outstanding int
	// PooledBytes is the total backing memory the arena owns.
	PooledBytes uint64
	// Resets counts Reset calls (≈ training steps).
	Resets uint64
}

// Stats reports arena counters (zero value for a nil workspace).
func (w *Workspace) Stats() WorkspaceStats {
	if w == nil {
		return WorkspaceStats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return WorkspaceStats{
		Gets:        w.gets,
		Hits:        w.hits,
		Outstanding: len(w.lent),
		PooledBytes: 4 * w.pooled,
		Resets:      w.resets,
	}
}

func (s WorkspaceStats) String() string {
	return fmt.Sprintf("gets=%d hits=%d outstanding=%d pooled=%dB resets=%d",
		s.Gets, s.Hits, s.Outstanding, s.PooledBytes, s.Resets)
}

// kernelScratch pools the packing panels the tiled matmul kernels use
// internally. It is process-global (kernels have no workspace
// parameter), never Reset, and strictly Get/Put balanced, so its
// footprint is bounded by peak kernel concurrency.
var kernelScratch = NewWorkspace()
