// Command segbench is the repository's performance-baseline harness.
// It measures the hot kernels (tiled vs reference matmul at the
// DeepLab head's GEMM shape), the workspace-pooled convolution on each
// of its lowerings (dense, depthwise, pointwise), a full
// single-rank training step (img/s and allocs/step), and the
// performance simulator, then writes the results as a machine-readable
// JSON report (BENCH_kernels.json at the repo root is the committed
// baseline).
//
// Modes:
//
//	segbench                         # full run, report to stdout
//	segbench -o BENCH_kernels.json   # regenerate the committed baseline
//	segbench -fast                   # single-iteration timings (CI)
//	segbench -fast -check BENCH_kernels.json
//	                                 # CI gate: schema/keys must match the
//	                                 # baseline and allocation counts must
//	                                 # not regress; timing deltas are
//	                                 # advisory only (CI machines vary,
//	                                 # allocation counts do not). Entries
//	                                 # whose baseline ran at a different
//	                                 # GOMAXPROCS are skipped, not compared.
//
// Every entry pins its own GOMAXPROCS — serial kernels at 1, the _mp4
// variants at 4 — so the committed baseline is comparable on any
// runner shape and -check gates both the serial and the parallel
// paths instead of skipping whichever the machine doesn't match.
//
// Benchmark keys and shapes are identical in both modes — -fast only
// reduces timing iterations — so a -fast run is always comparable to a
// full-mode baseline on everything -check enforces.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"segscale/internal/deeplab"
	"segscale/internal/fp16"
	"segscale/internal/horovod"
	"segscale/internal/model"
	"segscale/internal/mpiprofile"
	"segscale/internal/netmodel"
	"segscale/internal/nn"
	"segscale/internal/perfsim"
	"segscale/internal/segdata"
	"segscale/internal/tensor"
)

// schemaVersion is bumped whenever the report layout or the benchmark
// set changes incompatibly; -check refuses to compare across versions.
// v2: per-entry gomaxprocs.
// v3: fp16 encode/decode wire-cast kernels.
// v4: serial entries pinned to GOMAXPROCS=1, _mp4 entries pinned to 4.
// v5: fp16 kernels on gradient-like input, fp16_addinto_4m added.
// v6: depthwise and pointwise conv entries.
const schemaVersion = 6

// mpProcs is the parallelism the _mp4 entries pin. Four workers is
// enough to exercise the tensor.Parallel fan-out path (closure +
// goroutine per worker per launch) without depending on the runner's
// core count.
const mpProcs = 4

// Entry is one benchmark's measurements.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// GOMAXPROCS the timing loop ran at. -check compares an entry
	// against its baseline only when these match: timings from
	// different parallelism are different experiments, not deltas.
	GOMAXPROCS int `json:"gomaxprocs"`
	// ImgPerSec is set for benchmarks with a natural image-throughput
	// reading: measured for the training step, simulated for perfsim.
	ImgPerSec float64 `json:"img_per_sec,omitempty"`
}

// Report is the file format of BENCH_kernels.json.
type Report struct {
	Schema     int                `json:"schema"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Fast       bool               `json:"fast"`
	Benchmarks map[string]Entry   `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived"`
}

// withProcs pins GOMAXPROCS around one benchmark and restores it.
// Pinning is what makes the committed baseline machine-independent:
// every entry runs at its recorded parallelism regardless of the
// runner's core count, so -check compares instead of skipping.
func withProcs(procs int, fn func() Entry) Entry {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	return fn()
}

// bench times fn over iters runs (after one untimed warmup) and counts
// steady-state allocations at the pinned GOMAXPROCS. At one proc the
// count comes from testing.AllocsPerRun — exact and machine-
// independent. At higher parallelism AllocsPerRun would pin back to 1
// and miss the very thing the _mp4 entries exist to pin (per-launch
// closures and goroutine spawns in tensor.Parallel), so the parallel
// count is a Mallocs delta averaged over several runs; check() gives
// those entries proportional slack because goroutine-stack reuse makes
// the count approximate, not exact.
func bench(iters int, fn func()) Entry {
	fn() // warmup: grow arenas, fault in scratch pools
	var allocs float64
	if runtime.GOMAXPROCS(0) == 1 {
		allocs = testing.AllocsPerRun(1, fn)
	} else {
		allocs = allocsParallel(fn)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return Entry{
		NsPerOp:     float64(time.Since(start).Nanoseconds()) / float64(iters),
		AllocsPerOp: allocs,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}
}

// allocsParallel measures steady-state allocations without changing
// GOMAXPROCS: one extra warmup run to populate the goroutine free
// list, then a Mallocs delta averaged over a batch of runs.
func allocsParallel(fn func()) float64 {
	const runs = 10
	fn()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// matmulDims is the DeepLab-head GEMM the tentpole kernel is judged
// on: 256 filters × (256 channels · 3·3 taps) × 33·33 spatial.
const mmM, mmK, mmN = 256, 2304, 1089

func benchMatmul(iters int, tiled bool) Entry {
	a := tensor.New(mmM, mmK)
	b := tensor.New(mmK, mmN)
	c := tensor.New(mmM, mmN)
	fill(a.Data, 1)
	fill(b.Data, 2)
	if tiled {
		return bench(iters, func() { tensor.MatMulInto(c, a, b, false) })
	}
	return bench(iters, func() { tensor.MatMulRefInto(c, a, b, false) })
}

// convShape is one benchmarked convolution: an [n,c,h,h] input and f
// filters of k×k.
type convShape struct {
	n, c, h, f, k int
	spec          tensor.ConvSpec
}

var (
	// convDense is a dense 3×3 conv, lowered through im2col.
	convDense = convShape{2, 32, 33, 64, 3, tensor.ConvSpec{Pad: 1}}
	// convDW and convPW are the two halves of the default model's
	// deep-block separable conv at the trainer's batch of 4: 24
	// channels at 6×6, the depthwise 3×3 at dilation 2.
	convDW = convShape{4, 24, 6, 24, 3, tensor.ConvSpec{Pad: 2, Dilation: 2, Groups: 24}}
	convPW = convShape{4, 24, 6, 24, 1, tensor.ConvSpec{}}
)

func benchConv(iters int, cs convShape, backward bool) Entry {
	ws := tensor.NewWorkspace()
	spec := cs.spec.Canon()
	x := tensor.New(cs.n, cs.c, cs.h, cs.h)
	w := tensor.New(cs.f, cs.c/spec.Groups, cs.k, cs.k)
	fill(x.Data, 3)
	fill(w.Data, 4)
	out := tensor.Conv2DWS(x, w, spec, ws)
	dout := tensor.New(out.Shape...)
	fill(dout.Data, 5)
	if backward {
		return bench(iters, func() {
			ws.Reset()
			tensor.Conv2DBackwardWS(x, w, dout, spec, ws)
		})
	}
	return bench(iters, func() {
		ws.Reset()
		tensor.Conv2DWS(x, w, spec, ws)
	})
}

// benchTrainStep measures one full single-rank training step —
// dropout reseed, forward, loss, backward, optimiser update, gradient
// zeroing — with the workspace threaded through, the configuration the
// trainer actually runs.
func benchTrainStep(iters int) Entry {
	cfg := deeplab.DefaultConfig()
	net := deeplab.New(cfg)
	ws := tensor.NewWorkspace()
	net.SetWorkspace(ws)
	params := net.Params()
	opt := nn.NewSGD(0.05)
	const batch = 4
	ds := segdata.New(batch, cfg.InputSize, cfg.InputSize, 7)
	x, labels := ds.Batch([]int{0, 1, 2, 3})
	e := bench(iters, func() {
		ws.Reset()
		net.ReseedDropout(3)
		net.Loss(x, labels, segdata.IgnoreLabel, true)
		opt.Step(params)
		nn.ZeroGrads(params)
	})
	e.ImgPerSec = batch / (e.NsPerOp / 1e9)
	return e
}

// benchPerfsim runs the 132-GPU simulator; NsPerOp is the simulator's
// own execution cost, ImgPerSec the simulated training throughput.
func benchPerfsim(iters int) Entry {
	cfg := perfsim.Config{
		GPUs:    132,
		Model:   model.DLv3Plus(),
		MPI:     mpiprofile.MV2GDR(),
		Horovod: horovod.Default(),
		Seed:    1,
	}
	var simImgs float64
	e := bench(iters, func() {
		res, err := perfsim.Run(cfg)
		if err != nil {
			fatalf("perfsim: %v", err)
		}
		simImgs = res.ImgPerSec
	})
	e.ImgPerSec = simImgs
	return e
}

// benchPerfsimHier runs the 1056-rank (176-node) sweep with the
// topology-aware two-level allreduce — the scale the hierarchical path
// exists for. The allocation budget pins the simulator's fusion-plan
// and node-partition caches: a per-step miss at 1056 ranks would blow
// the count immediately.
func benchPerfsimHier(iters int) Entry {
	hvd := horovod.Default()
	hvd.Algorithm = netmodel.AlgHierTwoLevel
	cfg := perfsim.Config{
		GPUs:    1056,
		Model:   model.DLv3Plus(),
		MPI:     mpiprofile.MV2GDR(),
		Horovod: hvd,
		Seed:    1,
	}
	var simImgs float64
	e := bench(iters, func() {
		res, err := perfsim.Run(cfg)
		if err != nil {
			fatalf("perfsim hier: %v", err)
		}
		simImgs = res.ImgPerSec
	})
	e.ImgPerSec = simImgs
	return e
}

// fp16Elems is the wire-buffer size the compression kernels are
// judged at: the fusion buffer's worth of gradient elements
// (16 MiB of fp32, the Horovod default fusion threshold).
const fp16Elems = 4 << 20

// gradientLike fills d the way a gradient buffer looks to the binary16
// casts: magnitudes log-uniform over 1e-9…10, both signs, 5 % exact
// zeros. Sign and exponent class change from element to element, which
// is what a data-dependent branch in a converter pays for; uniform
// [-0.5, 0.5) input (fill) sits in two binades and hides it.
func gradientLike(d []float32, seed uint32) {
	s := seed
	next := func() float64 {
		s = s*1664525 + 1013904223
		return float64(s>>8) / (1 << 24)
	}
	for i := range d {
		if next() < 0.05 {
			d[i] = 0
			continue
		}
		m := math.Exp(math.Log(1e-9) + next()*math.Log(1e10))
		if next() < 0.5 {
			m = -m
		}
		d[i] = float32(m)
	}
}

// gradientHalves is a gradient-like buffer as it sits on the wire:
// loss-scaled by 2¹⁰ and encoded.
func gradientHalves(seed uint32) []uint16 {
	f := make([]float32, fp16Elems)
	h := make([]uint16, fp16Elems)
	gradientLike(f, seed)
	if err := fp16.EncodeScaled(f, h, 1024); err != nil {
		fatalf("fp16 encode: %v", err)
	}
	return h
}

// benchFP16Encode measures the binary16 pack cast over one fusion
// buffer. The kernel must be allocation-free: it runs once per
// fused group per step on the allreduce critical path.
func benchFP16Encode(iters int) Entry {
	src := make([]float32, fp16Elems)
	dst := make([]uint16, fp16Elems)
	gradientLike(src, 6)
	return bench(iters, func() {
		if err := fp16.Encode(src, dst); err != nil {
			fatalf("fp16 encode: %v", err)
		}
	})
}

// benchFP16Decode measures the matching unpack cast.
func benchFP16Decode(iters int) Entry {
	h := gradientHalves(7)
	f := make([]float32, fp16Elems)
	return bench(iters, func() {
		if err := fp16.Decode(h, f); err != nil {
			fatalf("fp16 decode: %v", err)
		}
	})
}

// benchFP16AddInto measures one reduce hop of the binary16 allreduce:
// decode both operands, add in float32, re-encode. The accumulator is
// restored from a spare copy before every call so the sums never drift
// to Inf (which would move the kernel onto its rare path); the copy is
// a 2-byte-per-element memmove inside the timed region, a few percent
// of the kernel.
func benchFP16AddInto(iters int) Entry {
	src := gradientHalves(8)
	start := gradientHalves(9)
	dst := make([]uint16, fp16Elems)
	return bench(iters, func() {
		copy(dst, start)
		if err := fp16.AddInto(dst, src); err != nil {
			fatalf("fp16 addinto: %v", err)
		}
	})
}

func fill(d []float32, seed uint32) {
	s := seed
	for i := range d {
		s = s*1664525 + 1013904223 // LCG: deterministic, no rand import
		d[i] = float32(s>>8)/float32(1<<24) - 0.5
	}
}

func run(fast bool) *Report {
	iters := 5
	if fast {
		iters = 1
	}
	r := &Report{
		Schema:     schemaVersion,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Fast:       fast,
		Benchmarks: map[string]Entry{},
		Derived:    map[string]float64{},
	}
	r.Benchmarks["matmul_tiled_256x2304x1089"] = withProcs(1, func() Entry { return benchMatmul(iters, true) })
	r.Benchmarks["matmul_ref_256x2304x1089"] = withProcs(1, func() Entry { return benchMatmul(iters, false) })
	r.Benchmarks["conv2d_fwd_ws"] = withProcs(1, func() Entry { return benchConv(iters, convDense, false) })
	r.Benchmarks["conv2d_bwd_ws"] = withProcs(1, func() Entry { return benchConv(iters, convDense, true) })
	r.Benchmarks["conv2d_dw_fwd_ws"] = withProcs(1, func() Entry { return benchConv(iters, convDW, false) })
	r.Benchmarks["conv2d_dw_bwd_ws"] = withProcs(1, func() Entry { return benchConv(iters, convDW, true) })
	r.Benchmarks["conv2d_pw_fwd_ws"] = withProcs(1, func() Entry { return benchConv(iters, convPW, false) })
	r.Benchmarks["conv2d_pw_bwd_ws"] = withProcs(1, func() Entry { return benchConv(iters, convPW, true) })
	r.Benchmarks["train_step_rank0"] = withProcs(1, func() Entry { return benchTrainStep(iters) })
	r.Benchmarks["perfsim_132gpu"] = withProcs(1, func() Entry { return benchPerfsim(iters) })
	r.Benchmarks["perfsim_1056gpu_hier"] = withProcs(1, func() Entry { return benchPerfsimHier(iters) })
	r.Benchmarks["fp16_encode_4m"] = withProcs(1, func() Entry { return benchFP16Encode(iters) })
	r.Benchmarks["fp16_decode_4m"] = withProcs(1, func() Entry { return benchFP16Decode(iters) })
	r.Benchmarks["fp16_addinto_4m"] = withProcs(1, func() Entry { return benchFP16AddInto(iters) })

	// Multi-core variants of the kernels with a tensor.Parallel fan-out
	// path. These pin the parallel path's allocation shape (closures and
	// goroutine spawns per launch) alongside the serial entries' exact
	// zero/low counts.
	r.Benchmarks["matmul_tiled_256x2304x1089_mp4"] = withProcs(mpProcs, func() Entry { return benchMatmul(iters, true) })
	r.Benchmarks["matmul_ref_256x2304x1089_mp4"] = withProcs(mpProcs, func() Entry { return benchMatmul(iters, false) })
	r.Benchmarks["conv2d_fwd_ws_mp4"] = withProcs(mpProcs, func() Entry { return benchConv(iters, convDense, false) })
	r.Benchmarks["conv2d_bwd_ws_mp4"] = withProcs(mpProcs, func() Entry { return benchConv(iters, convDense, true) })
	r.Benchmarks["train_step_rank0_mp4"] = withProcs(mpProcs, func() Entry { return benchTrainStep(iters) })

	r.Derived["matmul_speedup_vs_ref"] =
		r.Benchmarks["matmul_ref_256x2304x1089"].NsPerOp /
			r.Benchmarks["matmul_tiled_256x2304x1089"].NsPerOp
	r.Derived["train_allocs_per_step"] = r.Benchmarks["train_step_rank0"].AllocsPerOp
	// Parallel speedups are advisory like all timings: on a single-core
	// runner they sit near 1.0; a multi-core regeneration pins the real
	// fan-out win.
	r.Derived["matmul_tiled_mp4_speedup"] =
		r.Benchmarks["matmul_tiled_256x2304x1089"].NsPerOp /
			r.Benchmarks["matmul_tiled_256x2304x1089_mp4"].NsPerOp
	r.Derived["train_step_mp4_speedup"] =
		r.Benchmarks["train_step_rank0"].NsPerOp /
			r.Benchmarks["train_step_rank0_mp4"].NsPerOp
	return r
}

// allocSlack absorbs the ±1 rounding AllocsPerRun can exhibit on
// counts near zero; a leaked activation costs far more than one.
const allocSlack = 2

// check compares cur against the committed baseline. Schema and the
// benchmark key set must match exactly, and no benchmark may allocate
// more than its baseline plus slack. Timing deltas are printed but
// never fail the check.
func check(cur *Report, baselinePath string) error {
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	if base.Schema != cur.Schema {
		return fmt.Errorf("schema mismatch: baseline %d, current %d — regenerate the baseline (make bench-json)", base.Schema, cur.Schema)
	}
	for name := range base.Benchmarks {
		if _, ok := cur.Benchmarks[name]; !ok {
			return fmt.Errorf("benchmark %q in baseline but not produced by this binary", name)
		}
	}
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			return fmt.Errorf("benchmark %q not in baseline — regenerate it (make bench-json)", name)
		}
	}
	var failed bool
	skipped := 0
	for name, b := range base.Benchmarks {
		c := cur.Benchmarks[name]
		if b.GOMAXPROCS != c.GOMAXPROCS {
			// A baseline timed at different parallelism is a different
			// experiment; comparing against it would gate on the
			// machine shape, not the code.
			skipped++
			fmt.Fprintf(os.Stderr, "skip %s: baseline ran at GOMAXPROCS=%d, this machine at %d (not comparable)\n",
				name, b.GOMAXPROCS, c.GOMAXPROCS)
			continue
		}
		slack := float64(allocSlack)
		if b.GOMAXPROCS > 1 {
			// Parallel entries count goroutine spawns, which depend on
			// free-list state; their gate is proportional, catching a
			// leaked-per-launch allocation but not scheduler noise.
			slack += 0.25 * b.AllocsPerOp
		}
		if c.AllocsPerOp > b.AllocsPerOp+slack {
			failed = true
			fmt.Fprintf(os.Stderr, "FAIL %s: allocs/op %.0f, baseline %.0f\n",
				name, c.AllocsPerOp, b.AllocsPerOp)
		}
		if b.NsPerOp > 0 {
			fmt.Fprintf(os.Stderr, "time %s: %.2fms vs baseline %.2fms (%+.1f%%, advisory)\n",
				name, c.NsPerOp/1e6, b.NsPerOp/1e6, 100*(c.NsPerOp-b.NsPerOp)/b.NsPerOp)
		}
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "segbench: %d/%d entries skipped on GOMAXPROCS mismatch\n",
			skipped, len(base.Benchmarks))
	}
	if failed {
		return fmt.Errorf("allocation regression against %s", baselinePath)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "segbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	fast := flag.Bool("fast", false, "single-iteration timings (CI mode; allocation counts are unaffected)")
	out := flag.String("o", "", "write the JSON report to this file instead of stdout")
	baseline := flag.String("check", "", "compare against a committed baseline report; non-zero exit on schema/key mismatch or allocation regression")
	flag.Parse()

	r := run(*fast)
	enc, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "segbench: wrote %s\n", *out)
	} else {
		os.Stdout.Write(enc)
	}
	if *baseline != "" {
		if err := check(r, *baseline); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintln(os.Stderr, "segbench: baseline check passed")
	}
}
