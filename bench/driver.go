package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"segscale/internal/checkpoint"
	"segscale/internal/deeplab"
	"segscale/internal/horovod"
	"segscale/internal/metrics"
	"segscale/internal/nn"
	"segscale/internal/segdata"
	"segscale/internal/tensor"
	"segscale/internal/topology"
	"segscale/internal/transport"
	"segscale/pkg/summitseg"
)

// The step driver (T2) replays the trainer's per-rank operation order
// (internal/train: incarnation and rankStep.step) through each layer's
// public functions, with a span around every call. It exists because
// the trainer never reads a clock: spans inside the program are a later
// change, so the per-layer split is measured from outside. The price is
// that the driver can drift from the trainer; train.driver_closure (the
// driver's step median over the trainer's) says whether it has, and
// outside ±10 % the per-layer rows are void.

// driverOut is what one driven run leaves behind.
type driverOut struct {
	loadMS    float64 // checkpoint.LoadStateFile on rank 0, 0 without a checkpoint
	fileBytes int64
	evalImgs  int // images rank 0 evaluates per epoch
	params    int // parameter count of the model
}

// Loss-scaler constants of internal/train/mixedprec.go; its scaler is
// not exported, so the driver restates the schedule.
const (
	ampInitialScale   = 1 << 10
	ampGrowthInterval = 50
	ampMaxScale       = 1 << 15
)

// driveSteps runs cfg for its Epochs through the driver on a fresh
// world. Rank r appends its spans to logs[r] and step ids start at
// stepBase, so several driven runs share one trace. cfg must be one of
// the benchmark's own configurations: DeepLab arch, SGD, no gradient
// accumulation.
func driveSteps(cfg summitseg.TrainConfig, logs []*spanLog, stepBase int) (*driverOut, error) {
	if cfg.Arch != "deeplab" || cfg.Optimizer != "sgd" || cfg.Horovod.AccumPasses() != 1 {
		return nil, fmt.Errorf("step driver: unsupported configuration (arch %q, optimizer %q, %d passes per step)",
			cfg.Arch, cfg.Optimizer, cfg.Horovod.AccumPasses())
	}
	hvd := cfg.Horovod
	hvd.FP16Compression = hvd.FP16Compression || cfg.MixedPrecision
	mach := topology.ExactFor(cfg.World)
	trainSet := segdata.New(cfg.TrainSize, cfg.Model.InputSize, cfg.Model.InputSize, cfg.Seed)
	evalSet := segdata.New(cfg.EvalSize, cfg.Model.InputSize, cfg.Model.InputSize, cfg.Seed+1_000_000)
	trainSet.Style, evalSet.Style = cfg.DataStyle, cfg.DataStyle
	spe := stepsPerEpoch(cfg)
	total := spe * cfg.Epochs
	lrWorld := 1
	if cfg.ScaleLRByWorld {
		lrWorld = cfg.World
	}
	sched := nn.NewPolySchedule(cfg.BaseLR, total, int(cfg.WarmupFrac*float64(total)), lrWorld)

	out := &driverOut{}
	world, err := transport.NewWorld(cfg.World)
	if err != nil {
		return nil, err
	}
	err = world.Run(func(c *transport.Comm) error {
		rank := c.Rank()
		log := logs[rank]

		net := deeplab.New(cfg.Model)
		ws := tensor.NewWorkspace()
		net.SetWorkspace(ws)
		params := net.Params()
		rt, err := horovod.NewRuntime(c, mach, hvd)
		if err != nil {
			return err
		}
		opt := nn.NewSGD(sched.LR(0))

		sp := log.begin("horovod.bcast_params", -1)
		err = rt.BroadcastParams(params)
		log.end(sp)
		if err != nil {
			return err
		}
		// cur is the forward or backward span SyncBN reductions nest in.
		cur := -1
		if cfg.SyncBN && cfg.World > 1 {
			for _, bn := range net.BatchNorms() {
				bn.Sync = func(buf []float64) {
					s := log.begin("horovod.syncbn", cur)
					rt.RecordCommErr(rt.AllreduceSumFloat64(buf))
					log.end(s)
				}
			}
		}

		shard := segdata.ShardIDs(cfg.TrainSize, cfg.World, rank)
		ids := make([]int, 0, cfg.BatchPerRank)
		x := tensor.New(cfg.BatchPerRank, 3, trainSet.H, trainSet.W)
		labels := make([]int32, cfg.BatchPerRank*trainSet.H*trainSet.W)
		scale, good := float64(ampInitialScale), 0
		gstep := 0

		for epoch := 0; epoch < cfg.Epochs; epoch++ {
			perm := rand.New(rand.NewSource(cfg.Seed + int64(epoch)*101 + int64(rank))).Perm(len(shard))
			rng := rand.New(rand.NewSource(cfg.Seed*31 + int64(rank) + int64(epoch)*1_000_003))
			epochLoss := 0.0
			for s := 0; s < spe; s++ {
				log.step = stepBase + gstep
				st := log.begin("train.step", -1)
				ws.Reset()
				net.ReseedDropout(int64(gstep))

				b := log.begin("segdata.batch", st)
				ids = ids[:0]
				for k := 0; k < cfg.BatchPerRank; k++ {
					ids = append(ids, shard[perm[(s*cfg.BatchPerRank+k)%len(shard)]])
				}
				trainSet.BatchInto(ids, x, labels)
				if cfg.Augment {
					segdata.RandomScaleCrop(rng, x, labels, 0.75, 1.25)
					if rng.Intn(2) == 1 {
						segdata.FlipHoriz(x, labels)
					}
				}
				log.end(b)

				cur = log.begin("deeplab.forward", st)
				logits := net.Forward(x, true)
				log.end(cur)
				l := log.begin("tensor.loss", st)
				loss, dlogits := tensor.SoftmaxCrossEntropyWS(logits, labels, segdata.IgnoreLabel, ws)
				log.end(l)
				cur = log.begin("deeplab.backward", st)
				net.Backward(dlogits)
				log.end(cur)
				if err := rt.CommErr(); err != nil {
					return err
				}
				epochLoss += loss

				if cfg.MixedPrecision {
					o := log.begin("nn.optimizer", st)
					for _, p := range params {
						p.G.Scale(float32(scale))
					}
					log.end(o)
				}
				a := log.begin("horovod.allreduce_grads", st)
				err := rt.AllreduceGrads(params)
				log.end(a)
				if err != nil {
					return err
				}
				o := log.begin("nn.optimizer", st)
				apply := true
				if cfg.MixedPrecision {
					if gradsOverflowed(params) {
						apply, good = false, 0
						scale = math.Max(scale/2, 1)
						nn.ZeroGrads(params)
					} else {
						for _, p := range params {
							p.G.Scale(float32(1 / scale))
						}
						if good++; good >= ampGrowthInterval && scale < ampMaxScale {
							scale, good = scale*2, 0
						}
					}
				}
				if apply {
					if cfg.GradClip > 0 {
						nn.GlobalGradClip(params, cfg.GradClip)
					}
					opt.SetLR(sched.LR(gstep))
					opt.Step(params)
					nn.ZeroGrads(params)
				}
				log.end(o)
				log.end(st)
				gstep++
			}

			// Epoch tail, in the trainer's order: loss allreduce, eval,
			// confusion allreduce, checkpoint on rank 0, barrier.
			log.step = stepBase + gstep
			tail := log.begin("train.epoch_tail", -1)
			m := log.begin("horovod.metrics", tail)
			_, err := rt.AllreduceScalar(epochLoss / float64(spe))
			log.end(m)
			if err != nil {
				return err
			}
			conf, n := driveEval(net, evalSet, cfg.World, rank, ws, log, tail)
			ws.Reset()
			m = log.begin("horovod.metrics", tail)
			err = rt.AllreduceCounts(conf.M)
			log.end(m)
			if err != nil {
				return err
			}
			if rank == 0 {
				out.evalImgs, out.params = n, nn.ParamCount(params)
				if cfg.CheckpointPath != "" {
					s := log.begin("checkpoint.save", tail)
					err := checkpoint.SaveStateFile(cfg.CheckpointPath, checkpoint.State{
						Params: params, BNs: net.BatchNorms(), Velocity: opt.ExportState(params),
						Meta: &checkpoint.Meta{Epoch: epoch, Step: gstep},
					})
					log.end(s)
					if err != nil {
						return fmt.Errorf("checkpoint: %w", err)
					}
				}
			}
			bs := log.begin("transport.barrier", tail)
			err = c.Barrier()
			log.end(bs)
			log.end(tail)
			if err != nil {
				return err
			}
		}

		if rank == 0 && cfg.CheckpointPath != "" {
			// What a crash-restart pays: the full state read back in
			// place (the values are the ones just saved).
			st := checkpoint.State{Params: params, BNs: net.BatchNorms()}
			t := time.Now()
			if err := checkpoint.LoadStateFile(cfg.CheckpointPath, &st); err != nil {
				return fmt.Errorf("restore: %w", err)
			}
			out.loadMS = float64(time.Since(t)) / float64(time.Millisecond)
			fi, err := os.Stat(cfg.CheckpointPath)
			if err != nil {
				return err
			}
			out.fileBytes = fi.Size()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("step driver: %w", err)
	}
	return out, nil
}

// driveEval mirrors the trainer's pooled evaluate with a span around
// every PredictInto, and returns the confusion matrix and the number
// of images this rank evaluated.
func driveEval(net deeplab.Segmenter, evalSet *segdata.Dataset, world, rank int, ws *tensor.Workspace, log *spanLog, parent int) (*metrics.Confusion, int) {
	conf := metrics.NewConfusion(segdata.NumClasses)
	ids := segdata.ShardIDs(evalSet.Len(), world, rank)
	const evalBatch = 4
	hw := evalSet.H * evalSet.W
	labels := make([]int32, evalBatch*hw)
	pred := make([]int32, evalBatch*hw)
	for lo := 0; lo < len(ids); lo += evalBatch {
		n := min(lo+evalBatch, len(ids)) - lo
		ws.Reset()
		x := ws.GetRaw(n, 3, evalSet.H, evalSet.W)
		evalSet.BatchInto(ids[lo:lo+n], x, labels[:n*hw])
		s := log.begin("deeplab.predict", parent)
		p := net.PredictInto(x, pred[:n*hw])
		log.end(s)
		conf.Update(labels[:n*hw], p, segdata.IgnoreLabel)
	}
	return conf, len(ids)
}

// gradsOverflowed reports an Inf or NaN in any gradient.
func gradsOverflowed(params []*nn.Param) bool {
	for _, p := range params {
		for _, v := range p.G.Data {
			if math.Float32bits(v)&0x7F800000 == 0x7F800000 {
				return true
			}
		}
	}
	return false
}
