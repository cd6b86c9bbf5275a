package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"segscale/internal/collective"
	"segscale/internal/deeplab"
	"segscale/internal/fp16"
	"segscale/internal/horovod"
	"segscale/internal/tensor"
	"segscale/internal/topology"
	"segscale/internal/transport"
	"segscale/pkg/summitseg"
)

// Layer probes (T3): single public functions timed at the sizes the
// workload really uses, so a per-layer row can be traced down to a
// kernel rate (operation count ÷ time) and, for the comm stack, to the
// in-process α and β a later sim-vs-real closure needs.

// medianMS times fn reps times and returns the median in milliseconds.
func medianMS(reps int, fn func()) float64 {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		fn()
		xs = append(xs, float64(time.Since(t))/float64(time.Millisecond))
	}
	return median(xs)
}

// sink keeps probe results alive so the compiler cannot drop the loops.
var sink float32

// fmaGFLOPS is the multiply-add rate of a plain Go loop over eight
// independent accumulators: the peak scalar Go code can reach on this
// core, the yardstick that makes a kernel's GFLOP/s mean the same on
// any runner.
func fmaGFLOPS(reps int) float64 {
	const iters = 1 << 23
	ms := medianMS(reps, func() {
		a0, a1, a2, a3, a4, a5, a6, a7 := float32(1), float32(2), float32(3), float32(4), float32(5), float32(6), float32(7), float32(8)
		const m, c = float32(0.999999), float32(1e-6)
		for i := 0; i < iters; i++ {
			a0 = a0*m + c
			a1 = a1*m + c
			a2 = a2*m + c
			a3 = a3*m + c
			a4 = a4*m + c
			a5 = a5*m + c
			a6 = a6*m + c
			a7 = a7*m + c
		}
		sink = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
	})
	return 2 * 8 * iters / (ms * 1e6)
}

// streamGBps is the triad a[i] = b[i] + s·c[i] over arrays far larger
// than cache: twelve bytes moved per element.
func streamGBps(reps int) float64 {
	const n = 4 << 20
	a, b, c := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range b {
		b[i], c[i] = float32(i), float32(n-i)
	}
	ms := medianMS(reps, func() {
		const s = float32(0.5)
		for i := range a {
			a[i] = b[i] + s*c[i]
		}
		sink = a[n/2]
	})
	return 12 * n / (ms * 1e6)
}

// The DeepLab head's GEMM at the paper's geometry: 256 output channels,
// 2304 = 256·3·3 unrolled inputs, 33² = 1089 positions.
const headM, headK, headN = 256, 2304, 1089

// probeKernels fills host.* and tensor.*. Serial rows pin GOMAXPROCS
// to 1 whatever the workload runs at.
func probeKernels(cfg summitseg.TrainConfig, rp repeats, res *result) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(cfg.Seed))

	peak := fmaGFLOPS(rp.light)
	res.set("host.fma_gflops", peak)
	res.set("host.stream_gbps", streamGBps(rp.light))

	a, b, c := tensor.Randn(rng, 1, headM, headK), tensor.Randn(rng, 1, headK, headN), tensor.New(headM, headN)
	const headFLOP = 2.0 * headM * headK * headN
	p1 := medianMS(rp.heavy, func() { tensor.MatMulInto(c, a, b, false) })
	res.set("tensor.matmul_head_gflops", headFLOP/(p1*1e6))
	res.set("tensor.matmul_head_peak_frac", headFLOP/(p1*1e6)/peak)
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
		p2 := medianMS(rp.heavy, func() { tensor.MatMulInto(c, a, b, false) })
		runtime.GOMAXPROCS(1)
		res.set("tensor.matmul_p2_speedup", p1/p2)
	}

	// The decoder's second fusion conv (the largest 3×3) and the
	// classifier (1×1), at this workload's batch, width and resolution.
	n, ch, s := cfg.BatchPerRank, 2*cfg.Model.Width, cfg.Model.InputSize/2
	ws := tensor.NewWorkspace()
	x := tensor.Randn(rng, 1, n, ch, s, s)
	w3, w1 := tensor.Randn(rng, 1, ch, ch, 3, 3), tensor.Randn(rng, 1, cfg.Model.Classes, ch, 1, 1)
	dout := tensor.Randn(rng, 1, n, ch, s, s)
	pad := tensor.ConvSpec{Pad: 1}
	flop3 := 2.0 * float64(n*ch*s*s) * float64(ch*9)
	flop1 := 2.0 * float64(n*cfg.Model.Classes*s*s) * float64(ch)
	fwd := medianMS(rp.light, func() { ws.Reset(); tensor.Conv2DWS(x, w3, pad, ws) })
	bwd := medianMS(rp.light, func() { ws.Reset(); tensor.Conv2DBackwardWS(x, w3, dout, pad, ws) })
	one := medianMS(rp.light, func() { ws.Reset(); tensor.Conv2DWS(x, w1, tensor.ConvSpec{}, ws) })
	res.set("tensor.conv3x3_fwd_gflops", flop3/(fwd*1e6))
	res.set("tensor.conv3x3_bwd_gflops", 2*flop3/(bwd*1e6))
	res.set("tensor.conv1x1_fwd_gflops", flop1/(one*1e6))
}

// fusedLengths returns the element count of every fused buffer one step
// of cfg sends, from the planner the runtime itself uses.
func fusedLengths(cfg summitseg.TrainConfig) []int {
	params := deeplab.New(cfg.Model).Params()
	sizes := make([]int, len(params))
	for i, p := range params {
		sizes[i] = 4 * p.G.Len()
	}
	var out []int
	for _, g := range horovod.PlanFusion(sizes, cfg.Horovod.FusionThreshold) {
		out = append(out, horovod.GroupBytes(sizes, g)/4)
	}
	return out
}

// memDelta runs fn between two barriers and returns the process-wide
// Mallocs and TotalAlloc deltas as rank 0 saw them: every rank's
// allocations, which is what allocs_per_step counts too.
func memDelta(c *transport.Comm, fn func() error) (mallocs, bytes uint64, elapsed time.Duration, err error) {
	if err = c.Barrier(); err != nil {
		return
	}
	var m0, m1 runtime.MemStats
	if c.Rank() == 0 {
		runtime.ReadMemStats(&m0)
	}
	t := time.Now()
	if err = fn(); err != nil {
		return
	}
	if err = c.Barrier(); err != nil {
		return
	}
	elapsed = time.Since(t)
	if c.Rank() == 0 {
		runtime.ReadMemStats(&m1)
	}
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, elapsed, nil
}

// probeComm fills collective.*, transport.* and fp16.* from one
// long-lived two-rank world, so world spin-up is not in any number.
func probeComm(cfg summitseg.TrainConfig, rp repeats, res *result) error {
	lengths := fusedLengths(cfg)
	half := cfg.MixedPrecision
	payload, longest := 0, 0
	for _, n := range lengths {
		payload += n
		longest = max(longest, n)
	}
	elem := 4
	if half {
		elem = 2
	}

	world, err := transport.NewWorld(2)
	if err != nil {
		return err
	}
	group := []int{0, 1}
	err = world.Run(func(c *transport.Comm) error {
		rank0 := c.Rank() == 0
		peer := 1 - c.Rank()

		// Latency-bound: the 64-element ring SyncBN-sized reductions ride.
		small := make([]float32, 64)
		_, _, el, err := memDelta(c, func() error {
			for i := 0; i < rp.micro; i++ {
				if err := collective.AllreduceRing(c, group, small); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if rank0 {
			res.set("collective.small_allreduce_us", float64(el.Nanoseconds())/1e3/float64(rp.micro))
		}

		// Bandwidth-bound: one step's fused buffers through the ring
		// the runtime dispatches to, fp32 or binary16 as configured.
		bufs := make([][]float32, len(lengths))
		bufs16 := make([][]uint16, len(lengths))
		for i, n := range lengths {
			bufs[i], bufs16[i] = make([]float32, n), make([]uint16, n)
		}
		pass := func() error {
			for i := range lengths {
				var err error
				if half {
					err = collective.AllreduceRing16(c, group, bufs16[i])
				} else {
					err = collective.AllreduceRing(c, group, bufs[i])
				}
				if err != nil {
					return err
				}
			}
			return nil
		}
		if err := pass(); err != nil { // warm
			return err
		}
		passes := rp.light
		mallocs, bytes, el, err := memDelta(c, func() error {
			for i := 0; i < passes; i++ {
				if err := pass(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if rank0 {
			calls := float64(passes * len(lengths))
			ms := float64(el) / float64(time.Millisecond) / float64(passes)
			res.set("collective.fused_allreduce_ms", ms)
			res.set("collective.fused_allreduce_gbps", float64(payload*elem)/(ms*1e6))
			res.set("collective.allocs_per_allreduce", float64(mallocs)/calls)
			res.set("collective.bytes_per_allreduce", float64(bytes)/calls)
		}

		// α and β: half the round trip, in ns, of a 1-element and a 1 MiB
		// message.
		pingpong := func(n, rounds int) (float64, error) {
			buf := make([]float32, n)
			_, _, el, err := memDelta(c, func() error {
				for i := 0; i < rounds; i++ {
					if rank0 {
						if err := c.Send(peer, i, buf); err != nil {
							return err
						}
						if err := c.RecvInto(peer, i, buf); err != nil {
							return err
						}
					} else {
						if err := c.RecvInto(peer, i, buf); err != nil {
							return err
						}
						if err := c.Send(peer, i, buf); err != nil {
							return err
						}
					}
				}
				return nil
			})
			return float64(el.Nanoseconds()) / float64(2*rounds), err
		}
		alpha, err := pingpong(1, rp.micro)
		if err != nil {
			return err
		}
		const mib = 1 << 20
		big, err := pingpong(mib/4, rp.light)
		if err != nil {
			return err
		}
		_, _, el, err = memDelta(c, func() error {
			for i := 0; i < rp.micro; i++ {
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		if rank0 {
			res.set("transport.alpha_us", alpha/1e3)
			res.set("transport.beta_ns_per_byte", (big-alpha)/mib)
			res.set("transport.barrier_us", float64(el.Nanoseconds())/1e3/float64(rp.micro))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("comm probe: %w", err)
	}

	if half {
		src, dst := make([]float32, longest), make([]uint16, longest)
		for i := range src {
			src[i] = float32(i%1024) / 1024
		}
		var ferr error
		enc := medianMS(rp.light, func() { ferr = fp16.Encode(src, dst) })
		dec := medianMS(rp.light, func() { ferr = fp16.Decode(dst, src) })
		if ferr != nil {
			return fmt.Errorf("fp16 probe: %w", ferr)
		}
		res.set("fp16.encode_ns_per_elem", enc*1e6/float64(longest))
		res.set("fp16.decode_ns_per_elem", dec*1e6/float64(longest))
	}
	return probeAllocsP4(rp.light, res)
}

// probeAllocsP4 counts allocations per call of every allreduce schedule
// at 65 536 elements on four ranks (two nodes of two). Four ranks share
// two cores here, so only counts are reported, no wall time.
func probeAllocsP4(calls int, res *result) error {
	const n = 65536
	mach := topology.Machine{Nodes: 2, GPUsPer: 2}
	group := []int{0, 1, 2, 3}
	type alg struct {
		name string
		f32  func(c *transport.Comm, buf []float32) error
		f16  func(c *transport.Comm, buf []uint16) error
	}
	algs := []alg{
		{name: "ring", f32: func(c *transport.Comm, b []float32) error { return collective.AllreduceRing(c, group, b) }},
		{name: "rd", f32: func(c *transport.Comm, b []float32) error { return collective.AllreduceRecursiveDoubling(c, group, b) }},
		{name: "rab", f32: func(c *transport.Comm, b []float32) error { return collective.AllreduceRabenseifner(c, group, b) }},
		{name: "hier2", f32: func(c *transport.Comm, b []float32) error { return collective.AllreduceHierTwoLevel(c, mach, b) }},
		{name: "ring16", f16: func(c *transport.Comm, b []uint16) error { return collective.AllreduceRing16(c, group, b) }},
		{name: "rd16", f16: func(c *transport.Comm, b []uint16) error { return collective.AllreduceRecursiveDoubling16(c, group, b) }},
		{name: "rab16", f16: func(c *transport.Comm, b []uint16) error { return collective.AllreduceRabenseifner16(c, group, b) }},
		{name: "hier2_16", f16: func(c *transport.Comm, b []uint16) error { return collective.AllreduceHierTwoLevel16(c, mach, b) }},
	}
	world, err := transport.NewWorld(4)
	if err != nil {
		return err
	}
	err = world.Run(func(c *transport.Comm) error {
		b32, b16 := make([]float32, n), make([]uint16, n)
		for _, a := range algs {
			call := func() error {
				if a.f16 != nil {
					return a.f16(c, b16)
				}
				return a.f32(c, b32)
			}
			if err := call(); err != nil { // warm
				return err
			}
			mallocs, _, _, err := memDelta(c, func() error {
				for i := 0; i < calls; i++ {
					if err := call(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				res.set("collective.allocs_"+a.name+"_p4", float64(mallocs)/float64(calls))
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("p4 alloc probe: %w", err)
	}
	return nil
}

// probeTrain runs the probes a workload's layers call for: kernels
// always, the comm stack only where there is a second rank.
func probeTrain(cfg summitseg.TrainConfig, rp repeats, res *result) error {
	probeKernels(cfg, rp, res)
	if cfg.World < 2 {
		return nil
	}
	return probeComm(cfg, rp, res)
}
