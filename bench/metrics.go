package main

// metricDef declares one metric the benchmark prints. BENCHMARK.json
// lists the same names, units, directions and bounds; bench_test.go
// holds the two together.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric
	// may worsen before it counts as a regression (per-layer metrics
	// have none).
	Bound float64
	// Wall marks wall-clock readings, which a host with fewer cores
	// than a workload's ranks cannot resolve.
	Wall bool
}

// endToEnd is what a user of the system sees, measured with tracing
// off. Every workload reports every one of them; README.md says what
// each means on the simulator sweep, whose step is one sweep, and why
// the step median and the scaling efficiency are per-layer rows.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Wall: true},
	{Name: "img_per_s", Unit: "img/s", Better: "higher", Bound: 0.25, Wall: true},
	{Name: "allocs_per_step", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// perLayer is what the traced run adds, one layer (repo package) per
// prefix. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// train: the whole-run rows, read off the untraced run's step log.
	{Name: "train.time_to_miou_s", Unit: "s", Better: "lower", Wall: true},
	{Name: "train.step_ms_p50", Unit: "ms", Better: "lower", Wall: true},
	{Name: "train.step_ms_p90", Unit: "ms", Better: "lower", Wall: true},
	{Name: "train.epoch_tail_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "train.recovery_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "train.weak_scaling_eff", Unit: "ratio", Better: "higher", Wall: true},
	{Name: "train.comm_share", Unit: "ratio", Better: "lower", Wall: true},
	{Name: "train.driver_closure", Unit: "ratio", Better: "lower", Wall: true},
	{Name: "train.final_loss", Unit: "loss", Better: "lower"},
	{Name: "train.final_miou", Unit: "ratio", Better: "higher"},
	{Name: "train.epochs_to_target", Unit: "count", Better: "lower"},
	{Name: "train.overflow_steps", Unit: "count", Better: "lower"},
	// step driver spans (T2), rank-0 medians per step.
	{Name: "segdata.batch_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "deeplab.forward_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "deeplab.backward_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "deeplab.predict_ms_per_img", Unit: "ms", Better: "lower", Wall: true},
	{Name: "tensor.loss_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "nn.optimizer_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "nn.syncbn_calls_per_step", Unit: "count", Better: "lower"},
	{Name: "horovod.syncbn_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "horovod.allreduce_grads_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "horovod.pack_unpack_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "horovod.bcast_params_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "checkpoint.load_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "checkpoint.file_bytes", Unit: "bytes", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Wall: true},
	// telemetry counters (T1), exact for a seed.
	{Name: "horovod.fused_buffers_per_step", Unit: "count", Better: "lower"},
	{Name: "horovod.wire_bytes_per_step", Unit: "bytes", Better: "lower"},
	{Name: "transport.sends_per_step", Unit: "count", Better: "lower"},
	{Name: "transport.sent_bytes_per_step", Unit: "bytes", Better: "lower"},
	{Name: "transport.retries_total", Unit: "count", Better: "lower"},
	{Name: "telemetry.overhead_ratio", Unit: "ratio", Better: "lower", Wall: true},
	{Name: "modelhealth.overhead_ratio", Unit: "ratio", Better: "lower", Wall: true},
	// layer probes (T3) at the workload's real sizes.
	{Name: "host.fma_gflops", Unit: "GFLOP/s", Better: "higher", Wall: true},
	{Name: "host.stream_gbps", Unit: "GB/s", Better: "higher", Wall: true},
	{Name: "tensor.matmul_head_gflops", Unit: "GFLOP/s", Better: "higher", Wall: true},
	{Name: "tensor.matmul_head_peak_frac", Unit: "ratio", Better: "higher", Wall: true},
	{Name: "tensor.matmul_p2_speedup", Unit: "ratio", Better: "higher", Wall: true},
	{Name: "tensor.conv3x3_fwd_gflops", Unit: "GFLOP/s", Better: "higher", Wall: true},
	{Name: "tensor.conv3x3_bwd_gflops", Unit: "GFLOP/s", Better: "higher", Wall: true},
	{Name: "tensor.conv1x1_fwd_gflops", Unit: "GFLOP/s", Better: "higher", Wall: true},
	{Name: "collective.small_allreduce_us", Unit: "us", Better: "lower", Wall: true},
	{Name: "collective.fused_allreduce_ms", Unit: "ms", Better: "lower", Wall: true},
	{Name: "collective.fused_allreduce_gbps", Unit: "GB/s", Better: "higher", Wall: true},
	{Name: "collective.allocs_per_allreduce", Unit: "count", Better: "lower"},
	{Name: "collective.bytes_per_allreduce", Unit: "bytes", Better: "lower"},
	{Name: "collective.allocs_ring_p4", Unit: "count", Better: "lower"},
	{Name: "collective.allocs_rd_p4", Unit: "count", Better: "lower"},
	{Name: "collective.allocs_rab_p4", Unit: "count", Better: "lower"},
	{Name: "collective.allocs_hier2_p4", Unit: "count", Better: "lower"},
	{Name: "collective.allocs_ring16_p4", Unit: "count", Better: "lower"},
	{Name: "collective.allocs_rd16_p4", Unit: "count", Better: "lower"},
	{Name: "collective.allocs_rab16_p4", Unit: "count", Better: "lower"},
	{Name: "collective.allocs_hier2_16_p4", Unit: "count", Better: "lower"},
	{Name: "transport.alpha_us", Unit: "us", Better: "lower", Wall: true},
	{Name: "transport.beta_ns_per_byte", Unit: "ns/B", Better: "lower", Wall: true},
	{Name: "transport.barrier_us", Unit: "us", Better: "lower", Wall: true},
	{Name: "fp16.encode_ns_per_elem", Unit: "ns", Better: "lower", Wall: true},
	{Name: "fp16.decode_ns_per_elem", Unit: "ns", Better: "lower", Wall: true},
	// simulator: host time per sweep and per layer, then simulated
	// statistics.
	{Name: "sim.sweep_ms_p50", Unit: "ms", Better: "lower", Wall: true},
	{Name: "perfsim.run_ms_132", Unit: "ms", Better: "lower", Wall: true},
	{Name: "perfsim.run_ms_1056_hier", Unit: "ms", Better: "lower", Wall: true},
	{Name: "perfsim.allocs_132", Unit: "count", Better: "lower"},
	{Name: "core.tune_ms_132", Unit: "ms", Better: "lower", Wall: true},
	{Name: "core.tune_evals_132", Unit: "count", Better: "lower"},
	{Name: "core.scaling_ms_paper", Unit: "ms", Better: "lower", Wall: true},
	{Name: "netmodel.allreduce_eval_ns", Unit: "ns", Better: "lower", Wall: true},
	{Name: "des.events_132", Unit: "count", Better: "lower"},
	{Name: "des.events_per_host_s", Unit: "1/s", Better: "higher", Wall: true},
	{Name: "perfsim.eff_132_default", Unit: "ratio", Better: "higher"},
	{Name: "perfsim.eff_132_tuned", Unit: "ratio", Better: "higher"},
	{Name: "perfsim.img_per_s_132_tuned", Unit: "img/s", Better: "higher"},
	{Name: "perfsim.wire_bytes_132", Unit: "bytes", Better: "lower"},
}

func defsByName(defs []metricDef) map[string]metricDef {
	m := make(map[string]metricDef, len(defs))
	for _, d := range defs {
		m[d.Name] = d
	}
	return m
}
