package main

import (
	"fmt"
	"runtime"
	"time"

	"segscale/pkg/summitseg"
)

// The traced run has three parts. T1 calls the same public entry point
// with a telemetry collector (and, where it matters, the health plane)
// attached and reads back exact counts. T2 is the step driver
// (driver.go). T3 probes single layers at the workload's real sizes
// (probes.go). All of it runs on the short variant: an observer's cost
// and a layer's share do not depend on how long the run is, and the
// whole-run rows (train.*) come from the untraced run's own step log.
// Every ratio here has its base measured in this process, moments
// before.

// counters sums every telemetry counter across lanes.
func counters(col *summitseg.Telemetry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range col.Gather() {
		if m.Kind == "counter" {
			out[m.Name] = m.Value
		}
	}
	return out
}

// repeats is how often each part of a traced run repeats. The benchmark
// runs fullRepeats; bench_test.go passes smaller counts, never below
// two, so that what only goes wrong where rounds join still does.
type repeats struct {
	// rounds is how many times traceTrain alternates its short segments.
	// A shared host's speed moves by tens of percent from one second to
	// the next, so a ratio of two timings is only worth reading when both
	// were taken moments apart and one bad pair cannot decide it: every
	// ratio is the median of per-round ratios.
	rounds int
	// sweeps is how many traced/untraced sweep pairs traceSim times.
	sweeps int
	// Probe repetitions, by what one call costs: about 100 ms (the head
	// GEMM), milliseconds (host loops, convs, a step's fused buffers,
	// casts, a 1 MiB ping-pong, one Simulate), microseconds (64-element
	// allreduce, 1-element ping-pong, barrier).
	heavy, light, micro int
}

var fullRepeats = repeats{rounds: 6, sweeps: 8, heavy: 3, light: 20, micro: 2000}

// traceTrain produces the per-layer metrics of one train workload.
func traceTrain(w *workload, o options, rp repeats, res *result) error {
	cfg, err := w.config(variantShort, o.seed, o.dir)
	if err != nil {
		return err
	}
	one, err := w.config(variantBaseline, o.seed, o.dir)
	if err != nil {
		return err
	}
	steps := cfg.Epochs * stepsPerEpoch(cfg)
	withHealth := w.converges && cfg.World > 1
	// One span log per rank for all rounds: a span's parent is an index
	// into its own lane's log, so the rounds must share the log.
	logs := make([]*spanLog, cfg.World)
	for r := range logs {
		logs[r] = newSpanLog(fmt.Sprintf("rank%d", r), time.Now())
	}

	// segment runs the trainer once more and returns its median step.
	segment := func(c summitseg.TrainConfig) (float64, error) {
		run := runTrain(c, time.Now(), nil)
		if run.err != nil {
			return 0, run.err
		}
		res.Attempted += len(run.log.steps)
		st, _ := run.intervalsMS()
		return median(st), nil
	}

	var col *summitseg.Telemetry
	var telRatio, healthRatio, drvRatio, effRatio []float64
	var drv *driverOut
	for r := 0; r < rp.rounds; r++ {
		bare, err := segment(cfg)
		if err != nil {
			return fmt.Errorf("untraced segment: %w", err)
		}
		if cfg.World > 1 {
			// The same task on one worker at GOMAXPROCS=1: N-worker
			// throughput over N times this one's, at equal per-rank batch.
			prev := runtime.GOMAXPROCS(1)
			base, err := segment(one)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				return fmt.Errorf("one-worker segment: %w", err)
			}
			effRatio = append(effRatio, base/bare)
		}
		// T1: exact counts, and what the collector itself costs.
		t1 := cfg
		t1.Telemetry = summitseg.NewTelemetry()
		tel, err := segment(t1)
		if err != nil {
			return fmt.Errorf("T1: %w", err)
		}
		if col == nil {
			col = t1.Telemetry
		}
		telRatio = append(telRatio, tel/bare)
		if withHealth {
			// The health plane taps every activation and gradient; its
			// cost is reported on the workload users would watch with it.
			th := cfg
			th.Health = summitseg.NewHealthPlane(summitseg.HealthConfig{})
			h, err := segment(th)
			if err != nil {
				return fmt.Errorf("T1 health: %w", err)
			}
			healthRatio = append(healthRatio, h/bare)
		}
		// T2: the step driver.
		from := len(logs[0].spans)
		if drv, err = driveSteps(cfg, logs, r*steps); err != nil {
			return err
		}
		res.Attempted += steps
		drvRatio = append(drvRatio, median(perStepMS(logs[0].spans[from:], "train.step", true))/bare)
	}
	spans := logs[0].spans
	if o.spans {
		for _, l := range logs {
			res.Spans = append(res.Spans, l.spans...)
		}
	}

	perRankStep := float64(steps * cfg.World)
	cnt := counters(col)
	res.set("telemetry.overhead_ratio", median(telRatio))
	if cfg.World > 1 {
		res.set("train.weak_scaling_eff", median(effRatio))
	}
	if withHealth {
		res.set("modelhealth.overhead_ratio", median(healthRatio))
	}
	res.set("horovod.fused_buffers_per_step", cnt["horovod_fused_buffers_total"]/perRankStep)
	res.set("horovod.wire_bytes_per_step", cnt["horovod_fused_bytes"]/perRankStep)
	res.set("transport.sends_per_step", cnt["transport_sends_total"]/perRankStep)
	res.set("transport.sent_bytes_per_step", cnt["transport_sent_bytes"]/perRankStep)
	res.set("transport.retries_total", cnt["retries_total"])
	res.set("train.overflow_steps", cnt["amp_overflow_steps_total"]/float64(cfg.World))

	med := func(name string, total bool) float64 {
		xs := perStepMS(spans, name, total)
		if len(xs) == 0 {
			return 0
		}
		return median(xs)
	}
	stepMS := med("train.step", true)
	syncMS := med("horovod.syncbn", true)
	gradsMS := med("horovod.allreduce_grads", true)
	res.set("segdata.batch_ms", med("segdata.batch", false))
	res.set("deeplab.forward_ms", med("deeplab.forward", false))
	res.set("deeplab.backward_ms", med("deeplab.backward", false))
	res.set("tensor.loss_ms", med("tensor.loss", false))
	res.set("nn.optimizer_ms", med("nn.optimizer", false))
	res.set("horovod.syncbn_ms", syncMS)
	if cfg.World == 1 {
		// One rank communicates nothing: AllreduceGrads returns before it
		// touches a buffer, and what its span holds is span bookkeeping.
		gradsMS = 0
	}
	res.set("horovod.allreduce_grads_ms", gradsMS)
	res.set("horovod.bcast_params_ms", med("horovod.bcast_params", true))
	res.set("checkpoint.save_ms", med("checkpoint.save", true))
	res.set("checkpoint.load_ms", drv.loadMS)
	res.set("checkpoint.file_bytes", float64(drv.fileBytes))
	res.set("train.comm_share", (gradsMS+syncMS)/stepMS)
	res.set("train.driver_closure", median(drvRatio))
	res.set("trace.overhead_ratio", median(drvRatio))
	res.samples("train.driver_closure", len(drvRatio)*steps)
	syncCalls := 0
	for _, s := range spans {
		if s.Name == "horovod.syncbn" {
			syncCalls++
		}
	}
	res.set("nn.syncbn_calls_per_step", float64(syncCalls)/float64(len(drvRatio)*steps))
	if drv.evalImgs > 0 {
		res.set("deeplab.predict_ms_per_img", med("deeplab.predict", true)/float64(drv.evalImgs))
	}

	elem := 4.0
	if cfg.MixedPrecision {
		elem = 2
	}
	wantWire := 0.0
	if cfg.World > 1 {
		wantWire = elem * float64(drv.params)
	}
	res.check("wire_bytes_exact", res.Metrics["horovod.wire_bytes_per_step"] == wantWire,
		fmt.Sprintf("%.0f bytes per step, want %.0f (%g per parameter, binary16 is half of fp32)", res.Metrics["horovod.wire_bytes_per_step"], wantWire, elem))

	// T3: layer probes.
	if err := probeTrain(cfg, rp, res); err != nil {
		return err
	}
	if cfg.World > 1 {
		// What AllreduceGrads spends outside the collective: pack, unpack,
		// the binary16 casts, and waiting for the slower rank to arrive.
		res.set("horovod.pack_unpack_ms", gradsMS-res.Metrics["collective.fused_allreduce_ms"])
	}
	return nil
}

// traceSim produces the per-layer metrics of sim_sweep. Traced and
// untraced sweeps alternate, seed for seed, for the same reason the
// train segments do.
func traceSim(o options, rp repeats, res *result) error {
	s, err := newSweeper()
	if err != nil {
		return err
	}
	tr := newSpanLog("sim", time.Now())
	var base sweepStats
	var ratios []float64
	for i := 0; i < rp.sweeps; i++ {
		seed := o.seed + int64(i)
		t := time.Now()
		if _, err := s.sweep(seed, nil); err != nil {
			return err
		}
		bare := time.Since(t)
		tr.step = i
		t = time.Now()
		st, err := s.sweep(seed, tr)
		if err != nil {
			return err
		}
		ratios = append(ratios, float64(time.Since(t))/float64(bare))
		res.Attempted += 2 * st.configs
		res.Failed += 2 * st.failed
		if i == 0 {
			base = st
		}
	}
	spanMS := func(name string) float64 {
		var xs []float64
		for _, s := range tr.spans {
			if s.Name == name {
				xs = append(xs, s.durMS())
			}
		}
		return median(xs)
	}
	res.set("trace.overhead_ratio", median(ratios))
	res.set("core.scaling_ms_paper", spanMS("core.scaling"))
	res.set("core.tune_ms_132", spanMS("core.tune"))
	res.set("core.tune_evals_132", float64(base.tuneEvals))
	res.set("perfsim.run_ms_1056_hier", spanMS("perfsim.run_1056_hier"))
	res.set("netmodel.allreduce_eval_ns", 1e6*spanMS("netmodel.latency")/float64(len(summitseg.OSUMessageSizes())))
	res.set("perfsim.eff_132_default", base.effDefault132)
	res.set("perfsim.eff_132_tuned", base.effTuned132)
	res.set("perfsim.img_per_s_132_tuned", base.imgPerSTuned132)
	if o.spans {
		res.Spans = tr.spans
	}

	// One 132-GPU tuned run, timed bare and counted with a collector.
	opts := s.big(o.seed, false, false)
	opts.GPUs = tuneGPUs
	reps := rp.light
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runMS := medianMS(reps, func() {
		if _, e := summitseg.Simulate(opts); e != nil {
			err = e
		}
	})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	res.set("perfsim.run_ms_132", runMS)
	res.set("perfsim.allocs_132", float64(m1.Mallocs-m0.Mallocs)/float64(reps))

	col := summitseg.NewTelemetry()
	opts.Telemetry = col
	if _, err := summitseg.Simulate(opts); err != nil {
		return err
	}
	cnt := counters(col)
	res.set("des.events_132", cnt["des_events_total"])
	res.set("des.events_per_host_s", cnt["des_events_total"]/(runMS/1e3))
	res.set("perfsim.wire_bytes_132", cnt["perfsim_wire_bytes"])
	return nil
}
