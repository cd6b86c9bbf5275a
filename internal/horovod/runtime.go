package horovod

import (
	"fmt"
	"math"
	"sync"

	"segscale/internal/collective"
	"segscale/internal/fp16"
	"segscale/internal/netmodel"
	"segscale/internal/nn"
	"segscale/internal/telemetry"
	"segscale/internal/timeline"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// Runtime is the real (data-carrying) Horovod: it owns one rank's
// communicator and performs fused gradient allreduce and parameter
// broadcast, exactly as hvd.DistributedOptimizer and
// hvd.broadcast_global_variables do.
type Runtime struct {
	Comm *transport.Comm
	Mach topology.Machine
	Cfg  Config

	world   []int
	fused16 []uint16  // binary16 wire buffer (FP16Compression), sized by fusionPlan
	sum32   []float32 // reusable float32 staging of SyncBN statistics and eval counts, grown once

	// members maps comm rank → original machine slot: the identity for
	// a full world, the ascending survivor slots for an elastic one.
	members []int
	// nodeGroups partitions comm ranks by the machine node their
	// member slot lives on — the partition every hierarchical
	// allreduce runs over, prebuilt so the step path never rebuilds it.
	nodeGroups [][]int
	elastic    bool

	// Fusion-plan cache: the grouping is a pure function of the
	// parameter-size vector and the threshold, and the trainer submits
	// an identically-shaped list every step, so the plan is computed
	// once and replayed — the planner never runs on the steady-state
	// step path.
	planSizes []int
	plan      [][]int

	// probe is the rank's telemetry handle, cached from the
	// communicator at construction; nil (the default) costs one
	// branch per instrumentation site.
	probe *telemetry.Probe

	// commErr is the sticky first communication error from a context
	// that cannot return one — the SyncBN closure fires mid-forward —
	// surfaced via CommErr at the next step boundary.
	commErrMu sync.Mutex
	commErr   error
}

// NewRuntime builds one rank's runtime. The machine layout must match
// the world size (it defines the node groups hierarchical allreduce
// uses); a mismatch or an invalid configuration is reported as an
// error, never a panic — in a multi-rank world a panicking
// constructor tears down every in-process rank at once.
func NewRuntime(c *transport.Comm, mach topology.Machine, cfg Config) (*Runtime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mach.Ranks() != c.Size() {
		return nil, fmt.Errorf("horovod: machine has %d ranks, world has %d", mach.Ranks(), c.Size())
	}
	world := make([]int, c.Size())
	for i := range world {
		world[i] = i
	}
	return &Runtime{
		Comm: c, Mach: mach, Cfg: cfg,
		world:      world,
		members:    world,
		nodeGroups: nodeGroupsFor(mach, world),
		probe:      c.Probe(),
	}, nil
}

// Rank returns this runtime's rank.
func (r *Runtime) Rank() int { return r.Comm.Rank() }

// Size returns the world size.
func (r *Runtime) Size() int { return r.Comm.Size() }

// RecordCommErr stores err as the runtime's sticky communication
// error if it is the first (nil and repeat errors are ignored). It is
// the error channel for call sites that cannot return one — the
// synchronized-batch-norm closure runs mid-forward.
func (r *Runtime) RecordCommErr(err error) {
	if err == nil {
		return
	}
	r.commErrMu.Lock()
	if r.commErr == nil {
		r.commErr = err
	}
	r.commErrMu.Unlock()
}

// CommErr returns the sticky communication error (nil while healthy).
// The training loop polls it at step boundaries.
func (r *Runtime) CommErr() error {
	r.commErrMu.Lock()
	defer r.commErrMu.Unlock()
	return r.commErr
}

// BroadcastParams overwrites every rank's parameters with rank 0's —
// the initial weight synchronisation of distributed training.
func (r *Runtime) BroadcastParams(params []*nn.Param) error {
	r.probe.Counter("horovod_broadcasts_total").Inc()
	for _, p := range params {
		if err := collective.BcastTree(r.Comm, r.world, p.W.Data); err != nil {
			return fmt.Errorf("horovod: broadcast params: %w", err)
		}
	}
	return nil
}

// fusedBucketsBytes spaces histogram buckets for fused-buffer sizes
// from 4 KiB to 256 MiB.
var fusedBucketsBytes = telemetry.ExpBuckets(4<<10, 4, 9)

// AllreduceGrads averages gradients across all ranks in place,
// fusing consecutive tensors up to the configured threshold per
// buffer. Every rank must call it with an identically-shaped
// parameter list (guaranteed by deterministic model construction)
// whose gradients lie back to back in one arena (nn.LayOutGrads); a
// list that does not is an error on every rank before anything is
// sent. It is the unscaled, unjudged form of AllreduceGradsScaled.
func (r *Runtime) AllreduceGrads(params []*nn.Param) error {
	if r.Size() == 1 {
		return nil
	}
	_, err := r.allreduceGrads(params, 1, 1, false)
	return err
}

// AllreduceGradsScaled is the gradient allreduce with a loss scaler
// riding its two passes: every gradient is multiplied by pre on the
// way into the wire buffer, and on the way back by 1/size and then by
// post, in that order, each product rounded to float32 — bit for bit
// what scaling the gradients in place, averaging them, and unscaling
// them in place produces, with each element touched once per
// direction. nonFinite reports whether any averaged gradient was Inf
// or NaN before the post multiply; every rank reduces to the same
// bytes, so every rank gets the same verdict. A one-rank world has no
// wire and no average: the gradients are multiplied by pre, judged,
// and multiplied by post.
func (r *Runtime) AllreduceGradsScaled(params []*nn.Param, pre, post float32) (nonFinite bool, err error) {
	if r.Size() == 1 {
		for _, p := range params {
			if scaleJudged(p.G.Data, pre, post) {
				nonFinite = true
			}
		}
		return nonFinite, nil
	}
	return r.allreduceGrads(params, pre, post, true)
}

// allreduceGrads runs the fusion plan over a multi-rank world. Each
// fusion group is a contiguous range of the gradient arena, which the
// float32 collective reduces in place: of Horovod's copy into a fusion
// buffer and back, what remains is the pre multiply (none when pre is
// 1) and the inv·post pass, still timed as pack and unpack.
//
// Under FP16Compression each range is encoded to binary16 into the
// wire buffer, the collective runs over []uint16 (2 bytes per element,
// which every byte counter below reports), and the reduced half-words
// are decoded straight back into the range — hvd.Compression.fp16 as a
// real wire format — with the verdict read off their exponent fields,
// where it is all but free. On the float32 wire the verdict costs a few
// instructions per element with nothing to hide behind, so the
// unscaled form (judge false) leaves it out.
//
// Allocation-free; the world-2 rows of train.TestTrainStepAllocBudget
// pin it.
func (r *Runtime) allreduceGrads(params []*nn.Param, pre, post float32, judge bool) (nonFinite bool, err error) {
	grads, err := gradArena(params)
	if err != nil {
		return false, fmt.Errorf("horovod: allreduce grads: %w", err)
	}
	elemBytes := 4
	if r.Cfg.FP16Compression {
		elemBytes = 2
	}
	inv := 1 / float32(r.Size())
	off := 0
	for _, group := range r.fusionPlan(params) {
		n := GroupBytes(r.planSizes, group) / 4
		buf := grads[off : off+n]
		off += n

		r.probe.Counter("horovod_fused_buffers_total").Inc()
		r.probe.Counter("horovod_fused_bytes").Add(float64(elemBytes * n))
		r.probe.Histogram("horovod_fused_buffer_bytes", fusedBucketsBytes).Observe(float64(elemBytes * n))
		if r.Cfg.FusionThreshold > 0 {
			// Fusion-buffer fill: how much of the configured budget the
			// planner actually packed — low fill at scale means the
			// threshold is mis-tuned for the tensor-size distribution.
			r.probe.Gauge("horovod_fusion_fill_ratio").Set(float64(elemBytes*n) / float64(r.Cfg.FusionThreshold))
		}

		var bad bool
		if r.Cfg.FP16Compression {
			buf16 := r.fused16[:n]

			pack := r.probe.Span(timeline.PhaseMemcpy, "pack")
			err = fp16.EncodeScaled(buf, buf16, pre)
			pack.End()
			if err == nil {
				err = allreduce(r, buf16)
			}
			if err == nil {
				unpack := r.probe.Span(timeline.PhaseMemcpy, "unpack")
				bad, err = fp16.DecodeScaled(buf16, buf, inv, post)
				unpack.End()
			}
		} else {
			pack := r.probe.Span(timeline.PhaseMemcpy, "pack")
			if pre != 1 {
				for i, v := range buf {
					buf[i] = v * pre
				}
			}
			pack.End()

			if err = allreduce(r, buf); err == nil {
				unpack := r.probe.Span(timeline.PhaseMemcpy, "unpack")
				if judge {
					bad = scaleJudged(buf, inv, post)
				} else {
					for i, v := range buf {
						buf[i] = v * inv * post
					}
				}
				unpack.End()
			}
		}
		if err != nil {
			return false, fmt.Errorf("horovod: allreduce grads: %w", err)
		}
		nonFinite = nonFinite || bad
	}
	return nonFinite, nil
}

// gradArena returns the one slice the gradients of params span, in
// list order — the layout nn.LayOutGrads makes, in which every fusion
// group is a contiguous range. A list whose gradients are not back to
// back is an error, not a slow path. The check reads only the list, so
// every rank rejects the same list before any send.
func gradArena(params []*nn.Param) ([]float32, error) {
	total := 0
	for _, p := range params {
		total += p.G.Len()
	}
	var arena []float32
	off := 0
	for _, p := range params {
		if g := p.G.Data; len(g) > 0 {
			if arena == nil && cap(g) >= total {
				arena = g[:total]
			}
			if arena == nil || &arena[off] != &g[0] {
				return nil, fmt.Errorf("gradient %q does not follow its list predecessors in one arena (nn.LayOutGrads)", p.Name)
			}
			off += len(g)
		}
	}
	return arena, nil
}

// fusionPlan returns the cached fusion grouping for params, recomputing
// it only when the parameter-size vector differs from the cached one —
// in practice once per runtime, since deterministic model construction
// gives every step an identically-shaped list. A new plan also sizes
// the binary16 wire buffer to its largest group, so the buffer is
// allocated once rather than regrown as ever larger groups appear; the
// float32 wire reduces the arena in place and needs none.
func (r *Runtime) fusionPlan(params []*nn.Param) [][]int {
	same := len(r.planSizes) == len(params)
	if same {
		for i, p := range params {
			if r.planSizes[i] != 4*p.G.Len() {
				same = false
				break
			}
		}
	}
	if same {
		return r.plan
	}
	r.planSizes = r.planSizes[:0]
	for _, p := range params {
		r.planSizes = append(r.planSizes, 4*p.G.Len())
	}
	r.plan = PlanFusion(r.planSizes, r.Cfg.FusionThreshold)
	if r.Cfg.FP16Compression {
		widest := 0
		for _, g := range r.plan {
			widest = max(widest, GroupBytes(r.planSizes, g)/4)
		}
		if cap(r.fused16) < widest {
			r.fused16 = make([]uint16, widest)
		}
	}
	return r.plan
}

// scaleJudged multiplies buf by a and then by b in place (each product
// rounded to float32) and reports whether any buf[i]·a was Inf or NaN.
// The test is on the bit pattern and branch-free: adding one to an
// all-ones exponent field carries into the sign position.
//
// Allocation-free; the world-1 fp16 rows of
// train.TestTrainStepAllocBudget pin it.
func scaleJudged(buf []float32, a, b float32) bool {
	var acc uint32
	for i, v := range buf {
		v *= a
		acc |= math.Float32bits(v)&^(1<<31) + 1<<23
		buf[i] = v * b
	}
	return acc>>31 != 0
}

// allreduce dispatches one fused buffer to the configured collective,
// on whichever wire buf's element type selects. (A function, not a
// method: methods cannot take type parameters.)
func allreduce[T collective.Elem](r *Runtime, buf []T) error {
	switch r.Cfg.ResolveAlgorithm() {
	case netmodel.AlgHierLeader:
		if r.elastic {
			// The classic leader hierarchy assumes a full machine; an
			// elastic world runs the group form over the survivor
			// partition instead.
			intra, inter := topology.SummitLinkSpecs()
			return collective.AllreduceHierGroups(r.Comm, r.nodeGroups, intra, inter, buf)
		}
		return collective.AllreduceHierLeader(r.Comm, r.Mach, buf)
	case netmodel.AlgHierTwoLevel:
		intra, inter := topology.SummitLinkSpecs()
		return collective.AllreduceHierGroups(r.Comm, r.nodeGroups, intra, inter, buf)
	case netmodel.AlgRecursiveDoubling:
		return collective.AllreduceRecursiveDoubling(r.Comm, r.world, buf)
	case netmodel.AlgRabenseifner:
		return collective.AllreduceRabenseifner(r.Comm, r.world, buf)
	default:
		return collective.AllreduceRing(r.Comm, r.world, buf)
	}
}

// AllreduceSumFloat64 sums a float64 vector elementwise across ranks
// in place — the reduction synchronized batch norm uses for its
// statistics. Values ride the float32 collective.
func (r *Runtime) AllreduceSumFloat64(buf []float64) error {
	if r.Size() == 1 {
		return nil
	}
	return ringSum(r, buf, "float64", func(v float32) float64 { return float64(v) })
}

// ringSum sums vals elementwise across ranks in place on the float32
// ring, staged through the runtime's buffer (grown to the widest
// request once); back converts each sum back.
func ringSum[T int64 | float64](r *Runtime, vals []T, what string, back func(float32) T) error {
	if cap(r.sum32) < len(vals) {
		r.sum32 = make([]float32, len(vals))
	}
	f := r.sum32[:len(vals)]
	for i, v := range vals {
		f[i] = float32(v)
	}
	if err := collective.AllreduceRing(r.Comm, r.world, f); err != nil {
		return fmt.Errorf("horovod: allreduce %s: %w", what, err)
	}
	for i, v := range f {
		vals[i] = back(v)
	}
	return nil
}

// Broadcast overwrites buf on every rank with rank 0's contents —
// hvd.broadcast for a single tensor.
func (r *Runtime) Broadcast(buf []float32) error {
	if err := collective.BcastTree(r.Comm, r.world, buf); err != nil {
		return fmt.Errorf("horovod: broadcast: %w", err)
	}
	return nil
}

// AllreduceScalar averages one float64 across ranks (used for loss
// and metric reporting).
func (r *Runtime) AllreduceScalar(v float64) (float64, error) {
	buf := []float32{float32(v)}
	if err := collective.AllreduceRing(r.Comm, r.world, buf); err != nil {
		return 0, fmt.Errorf("horovod: allreduce scalar: %w", err)
	}
	return float64(buf[0]) / float64(r.Size()), nil
}

// AllreduceCounts sums an int64 vector across ranks (used to merge
// confusion matrices for global mIOU). Summation rides the float32
// collective, which is exact while every partial sum stays below 2²⁴
// — comfortably true for this package's evaluation-set pixel counts.
func (r *Runtime) AllreduceCounts(counts []int64) error {
	return ringSum(r, counts, "counts", func(v float32) int64 { return int64(v + 0.5) })
}
