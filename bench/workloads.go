package main

import (
	"fmt"
	"path/filepath"

	"segscale/pkg/summitseg"
)

// Sizes of the fixed units of work. Every train workload is a closed
// loop over a fixed number of steps, sized so one unit measures for
// about ten seconds on the 2-core reference host (see README.md);
// -seconds repeats the unit, it never reshapes it, because the epoch
// count is part of the task (the poly learning-rate schedule and so
// time-to-mIOU depend on it).
const (
	baseTrainSize = 128
	baseEpochs    = 20
	commEpochs    = 8
	commTrainSize = 64
	// shortSteps is the length of a short segment: one epoch.
	shortSteps = 16
	// crashStep is the global step at which rank 1 dies on
	// train_scale_w2, mid-epoch so the rollback redoes real work.
	crashStep = 200
	// targetMIOU is the quality bar of the convergence workloads.
	targetMIOU = 0.55
	// simSweeps is the number of sweeps sim_sweep times.
	simSweeps = 32
	// nominalUnitSeconds is what one unit of any workload is sized to;
	// -seconds / nominalUnitSeconds (rounded, at least 1) times the
	// workload's units run.
	nominalUnitSeconds = 10
)

// variant selects which configuration of a workload is built.
type variant int

const (
	// variantFull is the workload as declared.
	variantFull variant = iota
	// variantBaseline is variantShort on one worker with no checkpoint:
	// the denominator of train.weak_scaling_eff, run at GOMAXPROCS=1.
	variantBaseline
	// variantShort is the declared configuration cut to one epoch of
	// shortSteps, the segment the traced run alternates: an observer's
	// cost is compared at equal step shape, and convergence is not the
	// question.
	variantShort
)

// workload is one fixed set of inputs.
type workload struct {
	name string
	why  string
	// procs is the GOMAXPROCS the child runs at; world the rank count
	// (0 for the simulator sweep).
	procs, world int
	// units is how many times the fixed unit of work runs per ten
	// seconds of -seconds, the metrics being medians across units. The
	// two-rank workloads run it twice: their timings need both vCPUs of
	// a shared host quiet at once, and move twice as much from run to
	// run as the one-rank ones.
	units int
	// converges marks the workloads that must reach targetMIOU.
	converges bool
	// wantRestarts is the Result.Restarts the chaos plan must produce.
	wantRestarts int
	// build returns the training configuration for a seed; dir is a
	// scratch directory inside the checkout for the checkpoint.
	build func(seed int64, dir string) (summitseg.TrainConfig, error)
}

func (w *workload) isTrain() bool { return w.build != nil }

// config builds the workload's TrainConfig for a variant.
func (w *workload) config(v variant, seed int64, dir string) (summitseg.TrainConfig, error) {
	cfg, err := w.build(seed, dir)
	if err != nil {
		return cfg, err
	}
	if v == variantBaseline {
		cfg.World, cfg.CheckpointPath = 1, ""
	}
	if v != variantFull {
		cfg.TrainSize, cfg.Epochs = shortSteps*cfg.BatchPerRank*cfg.World, 1
		cfg.Chaos, cfg.MaxRestarts = nil, 0
	}
	return cfg, nil
}

// stepsPerEpoch mirrors the trainer's shard arithmetic: every rank
// runs ceil(shard/batch) steps, the shard being ceil(TrainSize/World).
func stepsPerEpoch(cfg summitseg.TrainConfig) int {
	shard := (cfg.TrainSize + cfg.World - 1) / cfg.World
	return (shard + cfg.BatchPerRank - 1) / cfg.BatchPerRank
}

// baseTask is the task dlv3-train runs by default, sized up to 128
// images so an epoch is long enough to time.
func baseTask(seed int64, world int) summitseg.TrainConfig {
	cfg := summitseg.DefaultTraining()
	cfg.TrainSize, cfg.Epochs, cfg.World = baseTrainSize, baseEpochs, world
	cfg.Seed, cfg.Model.Seed = seed, seed
	return cfg
}

// commTask is spatially tiny and parameter-heavy: 8×8 inputs, width
// 64, one image per rank, so the fused gradient buffers dominate.
func commTask(seed int64) summitseg.TrainConfig {
	cfg := summitseg.DefaultTraining()
	cfg.World = 2
	cfg.Model.InputSize, cfg.Model.Width = 8, 64
	cfg.BatchPerRank, cfg.TrainSize, cfg.Epochs = 1, commTrainSize, commEpochs
	cfg.Horovod.FusionThreshold = 256 << 10
	cfg.Seed, cfg.Model.Seed = seed, seed
	return cfg
}

var workloads = []*workload{
	{
		name: "train_base_w1", procs: 1, world: 1, units: 1, converges: true,
		why: "plain single-worker run of the default task: compute layers do all the work, the comm stack none, so a comm change must not move it",
		build: func(seed int64, _ string) (summitseg.TrainConfig, error) {
			return baseTask(seed, 1), nil
		},
	},
	{
		name: "train_scale_w2", procs: 2, world: 2, units: 2, converges: true, wantRestarts: 1,
		why: "same task on two workers with SyncBN, per-epoch checkpoint and one crash-restart: latency-bound comm and ranks competing for two cores",
		build: func(seed int64, dir string) (summitseg.TrainConfig, error) {
			cfg := baseTask(seed, 2)
			cfg.CheckpointPath = filepath.Join(dir, "scale.segc")
			plan, err := summitseg.ParseChaosSpec(fmt.Sprintf("seed=%d;crash=1@%d", seed, crashStep))
			if err != nil {
				return cfg, err
			}
			cfg.Chaos, cfg.MaxRestarts = plan, 2
			return cfg, nil
		},
	},
	{
		name: "train_comm_w2", procs: 2, world: 2, units: 2,
		why: "8x8 inputs, width 64: 726k parameters in ~12 fused fp32 buffers per step, the bandwidth-bound use of horovod/collective/transport",
		build: func(seed int64, _ string) (summitseg.TrainConfig, error) {
			return commTask(seed), nil
		},
	},
	{
		name: "train_fp16_w2", procs: 2, world: 2, units: 2,
		why: "train_comm_w2 under mixed precision: binary16 wire and loss scaler, so a change that favours one executor over the other shows as one row up, one down",
		build: func(seed int64, _ string) (summitseg.TrainConfig, error) {
			cfg := commTask(seed)
			summitseg.EnableMixedPrecision(&cfg, 0)
			return cfg, nil
		},
	},
	{
		name: "sim_sweep", procs: 1, units: 1,
		why: "what summit-sim, hvd-tune, osu-micro and repro-check users wait for: touches only perfsim/netmodel/des/core/topology, so a kernel or comm change must not move it",
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
