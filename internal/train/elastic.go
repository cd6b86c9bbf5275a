package train

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"segscale/internal/checkpoint"
	"segscale/internal/deeplab"
	"segscale/internal/horovod"
	"segscale/internal/modelhealth"
	"segscale/internal/nn"
	"segscale/internal/segdata"
	"segscale/internal/telemetry"
	"segscale/internal/tensor"
	"segscale/internal/timeline"
	"segscale/internal/transport"
)

// Elastic training: instead of rolling the whole world back to a
// checkpoint when a rank dies, the survivors re-form a smaller world
// in place and keep going. Replicas live in runState across world
// transitions — the weights carry whatever progress the interrupted
// epoch made — and the interrupted epoch restarts on the shrunken
// world with shards, shuffles, and augmentation streams re-keyed by
// the new (comm rank, world size). Determinism rests on the
// collectives being globally synchronizing: after a kill, every
// survivor fails inside the same global step before any state
// divergence can be observed (failed collectives never write back,
// the optimiser only steps after a successful allreduce), so the
// survivor set leaves the incarnation bit-identical across reruns of
// the same seed. Dirty gradients and per-rank batch-norm drift from
// the torn step are erased at resume: gradients are zeroed and
// parameters, batch-norm statistics, and optimiser velocity are
// broadcast bit-exactly from the lowest surviving slot.
//
// This file is a separate code path from incarnation(): the default
// checkpoint-restart path's operation order is pinned by the
// restart-equivalence goldens and must not change.

// errRejoin is the in-band signal every rank returns, in lockstep, at
// the top of cfg.RejoinEpoch when the world is short-handed: the
// driver regrows the membership and starts a new incarnation there.
var errRejoin = errors.New("train: scheduled rejoin")

// replica is one slot's long-lived training state. It survives world
// transitions, which is exactly what distinguishes elastic resume
// from checkpoint restart.
type replica struct {
	net    deeplab.Segmenter
	ws     *tensor.Workspace
	params []*nn.Param
	opt    nn.Optimizer
	gstep  int

	// saved is the in-memory epoch-boundary snapshot — the Horovod
	// elastic state.commit(): a rank kill tears the in-flight step at a
	// scheduling-dependent point (some survivors may have applied the
	// last optimiser update, others not), so live post-crash state is
	// not reproducible. Rolling every survivor back to its last commit
	// before re-forming the world makes the resume a pure function of
	// (seed, crash epoch) again. Purely in memory — nothing is written
	// to or read from disk.
	saved *replicaSnap
}

// replicaSnap holds one committed copy of everything a training step
// mutates: weights, float64 batch-norm statistics, optimiser
// velocity, and the global step cursor.
type replicaSnap struct {
	params [][]float32
	bnMean [][]float64
	bnVar  [][]float64
	vel    [][]float32
	gstep  int
}

// commit snapshots the replica's live state. Called at every epoch
// boundary (after the barrier) and once after the incarnation's
// state sync, so a rollback target always exists.
func (r *replica) commit() {
	if r.saved == nil {
		r.saved = &replicaSnap{}
	}
	s := r.saved
	s.params = copyF32s(s.params, r.params)
	bns := r.net.BatchNorms()
	if len(s.bnMean) != len(bns) {
		s.bnMean = make([][]float64, len(bns))
		s.bnVar = make([][]float64, len(bns))
	}
	for i, bn := range bns {
		s.bnMean[i] = append(s.bnMean[i][:0], bn.RunningMean...)
		s.bnVar[i] = append(s.bnVar[i][:0], bn.RunningVar...)
	}
	s.vel = r.opt.ExportState(r.params)
	s.gstep = r.gstep
}

// rollback restores the last committed state (a no-op before the
// first commit).
func (r *replica) rollback() {
	s := r.saved
	if s == nil {
		return
	}
	for i, p := range r.params {
		copy(p.W.Data, s.params[i])
	}
	for i, bn := range r.net.BatchNorms() {
		copy(bn.RunningMean, s.bnMean[i])
		copy(bn.RunningVar, s.bnVar[i])
	}
	if err := r.opt.ImportState(r.params, s.vel); err != nil {
		// The snapshot was exported from this very optimiser/parameter
		// pair; a shape mismatch is unreachable.
		panic(fmt.Sprintf("train: elastic rollback: %v", err))
	}
	r.gstep = s.gstep
}

// copyF32s copies each parameter's weights into dst, reusing its
// backing arrays across commits.
func copyF32s(dst [][]float32, params []*nn.Param) [][]float32 {
	if len(dst) != len(params) {
		dst = make([][]float32, len(params))
	}
	for i, p := range params {
		dst[i] = append(dst[i][:0], p.W.Data...)
	}
	return dst
}

func (rs *runState) newReplica(gstep int) *replica {
	cfg := rs.cfg
	var net deeplab.Segmenter
	if cfg.Arch == "fcn" {
		net = deeplab.NewFCN(cfg.Model)
	} else {
		net = deeplab.New(cfg.Model)
	}
	ws := tensor.NewWorkspace()
	net.SetWorkspace(ws)
	var opt nn.Optimizer
	if cfg.Optimizer == "lars" {
		opt = nn.NewLARS(rs.sched.LR(0))
	} else {
		opt = nn.NewSGD(rs.sched.LR(0))
	}
	return &replica{net: net, ws: ws, params: net.Params(), opt: opt, gstep: gstep}
}

// runElastic drives elastic incarnations until the run completes:
// recoverable failures shrink the membership (consuming the restart
// budget), a scheduled rejoin regrows it for free, and anything else
// propagates.
func (rs *runState) runElastic() error {
	cfg := rs.cfg
	inc := 0
	for {
		failedSlots, err := rs.elasticIncarnation(rs.doneEpoch+1, inc)
		if err == nil {
			return nil
		}
		if errors.Is(err, errRejoin) {
			revived := rs.members.RestoreAll()
			for _, s := range revived {
				// The revived slot's old replica is stale (frozen at its
				// death point); rebuild it fresh and let the incarnation's
				// state sync bring it up to date.
				delete(rs.replicas, s)
			}
			rs.regrows++
			inc++
			rs.probe.Counter("elastic_regrows_total").Inc()
			rs.probe.Mark(timeline.PhaseRecovery, fmt.Sprintf("regrow%d: +%d slot(s)", rs.regrows, len(revived)))
			continue
		}
		if !recoverable(err) || rs.shrinks >= cfg.MaxRestarts {
			return err
		}
		if len(failedSlots) == 0 || len(failedSlots) >= rs.members.Size() {
			// Nothing to shrink around (an unattributable delivery
			// failure, or no survivors) — elastic recovery cannot help.
			return err
		}
		if rmErr := rs.members.Remove(failedSlots...); rmErr != nil {
			return errors.Join(err, rmErr)
		}
		for _, s := range failedSlots {
			delete(rs.replicas, s)
		}
		rs.shrinks++
		inc++
		rs.probe.Counter("elastic_shrinks_total").Inc()
		rs.probe.Mark(timeline.PhaseRecovery, fmt.Sprintf("shrink%d: -%v → %d rank(s): %v",
			rs.shrinks, failedSlots, rs.members.Size(), err))
	}
}

// elasticIncarnation builds one world over the current membership and
// trains epochs [startEpoch, Epochs). On failure it also reports
// which member slots died, mapped from the transport's failed comm
// ranks, so the driver can shrink around them.
func (rs *runState) elasticIncarnation(startEpoch, inc int) ([]int, error) {
	cfg := rs.cfg
	members := rs.members.Members()
	p := len(members)

	// Deterministic shard rebalance: comm rank i of this incarnation
	// owns the strided shard ShardIDs(TrainSize, p, i), so the epoch's
	// coverage and step count are pure functions of the member count.
	stepsPerEpoch := (len(segdata.ShardIDs(cfg.TrainSize, p, 0)) + cfg.BatchPerRank - 1) / cfg.BatchPerRank

	// Roll every surviving replica back to its last committed epoch
	// boundary: the torn step died at a scheduling-dependent point, and
	// only the committed state is reproducible across reruns.
	for _, s := range members {
		if rep, ok := rs.replicas[s]; ok {
			rep.rollback()
		}
	}
	// The sync root is the lowest comm rank whose replica predates
	// this incarnation — a survivor carrying real state. Resolved
	// before the missing replicas are rebuilt (afterwards every slot
	// has one). On the very first incarnation every slot is fresh and
	// root 0 is fine: the broadcast just makes the freshly initialized
	// replicas identical in value. gstep carries over from the same
	// survivor — after rollback, every survivor holds the same value.
	root, refGstep := 0, 0
	for i, s := range members {
		if rep, ok := rs.replicas[s]; ok {
			root, refGstep = i, rep.gstep
			break
		}
	}
	for _, s := range members {
		if _, ok := rs.replicas[s]; !ok {
			rs.replicas[s] = rs.newReplica(refGstep)
		}
	}

	w, err := transport.NewWorld(p)
	if err != nil {
		return nil, err
	}
	w.SetIncarnation(inc)
	if cfg.Chaos != nil {
		cfg.Chaos.Arm(w)
	}
	if cfg.OnWorld != nil {
		cfg.OnWorld(w, inc)
	}
	runErr := w.Run(func(c *transport.Comm) error {
		rank := c.Rank()
		slot := members[rank]
		rep := rs.replicas[slot]
		// Lanes are keyed by machine slot, not comm rank, so a slot's
		// series stays its own as the world changes shape around it.
		obsLane := fmt.Sprintf("rank%d", slot)
		lane := obsLane
		if inc > 0 {
			lane = fmt.Sprintf("rank%d.r%d", slot, inc)
		}
		probe := cfg.Telemetry.NewProbe(lane, telemetry.NewStepClock())
		if probe != nil {
			c.SetProbe(probe)
		}
		// The health plane observes an elastic replica exactly as it does
		// a fixed-world one, keyed by machine slot like the lanes. The
		// replica's network outlives the incarnation, so the tap is
		// re-pointed at this incarnation's collector every time.
		var health *modelhealth.Collector
		if cfg.Health != nil {
			health = cfg.Health.Rank(slot, inc, probe)
			rep.net.SetActivationTap(health)
		}
		rt, err := horovod.NewElasticRuntime(c, rs.mach, members, cfg.Horovod)
		if err != nil {
			return err
		}

		// State sync: every elastic incarnation starts by making all
		// replicas bit-identical to the sync root's — parameters,
		// float64 batch-norm statistics, optimiser velocity — and by
		// zeroing gradients (the torn step may have left them partially
		// averaged). Uniform across incarnations, so the wire schedule
		// never depends on why the world was rebuilt.
		nn.ZeroGrads(rep.params)
		if err := rt.BroadcastParamsFrom(root, rep.params); err != nil {
			return err
		}
		for _, bn := range rep.net.BatchNorms() {
			if err := rt.BroadcastFloat64ExactFrom(root, bn.RunningMean); err != nil {
				return err
			}
			if err := rt.BroadcastFloat64ExactFrom(root, bn.RunningVar); err != nil {
				return err
			}
		}
		vel := rep.opt.ExportState(rep.params)
		for _, v := range vel {
			if err := rt.BroadcastFrom(root, v); err != nil {
				return err
			}
		}
		if err := rep.opt.ImportState(rep.params, vel); err != nil {
			return err
		}
		// First commit of the incarnation: the freshly synced state is
		// the rollback target should this incarnation die before its
		// first epoch boundary.
		rep.commit()

		if cfg.SyncBN && p > 1 {
			for _, bn := range rep.net.BatchNorms() {
				bn.Sync = func(buf []float64) {
					rt.RecordCommErr(rt.AllreduceSumFloat64(buf))
				}
			}
		} else {
			for _, bn := range rep.net.BatchNorms() {
				bn.Sync = nil
			}
		}

		shard := segdata.ShardIDs(cfg.TrainSize, p, rank)
		st := &rankStep{
			cfg: cfg, c: c, probe: probe, obsLane: obsLane,
			inc: inc, rank: slot,
			net: rep.net, ws: rep.ws, params: rep.params, rt: rt, opt: rep.opt,
			sched: rs.sched, trainSet: rs.trainSet,
			shard:  shard,
			accum:  cfg.Horovod.AccumPasses(),
			scaler: scalerFor(cfg),
			health: health,
			ids:    make([]int, 0, cfg.BatchPerRank),
			gstep:  rep.gstep,
			x:      tensor.New(cfg.BatchPerRank, 3, rs.trainSet.H, rs.trainSet.W),
			labels: make([]int32,
				cfg.BatchPerRank*rs.trainSet.H*rs.trainSet.W),
		}
		defer func() { rep.gstep = st.gstep }()

		for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
			if cfg.RejoinEpoch > 0 && epoch == cfg.RejoinEpoch && !rs.members.Full() {
				// Same deterministic condition on every rank, evaluated at
				// an epoch boundary where no collective is in flight: all
				// ranks leave together and the driver regrows the world.
				return errRejoin
			}
			// Shuffle and augmentation streams are re-keyed by the comm
			// rank and re-derived per epoch, exactly like the fixed-world
			// path — the shrunken run is a pure function of (seed,
			// membership, epoch).
			perm := rand.New(rand.NewSource(cfg.Seed + int64(epoch)*101 + int64(rank))).Perm(len(shard))
			rng := augRNG(cfg.Seed, rank, epoch)
			epochLoss, batches := 0.0, 0
			for s := 0; s < stepsPerEpoch; s++ {
				loss, err := st.step(s, perm, rng)
				if err != nil {
					return err
				}
				epochLoss += loss
				batches++
			}

			avgLoss, err := rt.AllreduceScalar(epochLoss / float64(batches))
			if err != nil {
				return err
			}
			conf := evaluate(rep.net, rs.evalSet, p, rank, rep.ws)
			rep.ws.Reset()
			if err := rt.AllreduceCounts(conf.M); err != nil {
				return err
			}
			if rank == 0 {
				rs.history[epoch] = EpochStats{
					Epoch:    epoch,
					Loss:     avgLoss,
					MIOU:     conf.MeanIOU(),
					PixelAcc: conf.PixelAccuracy(),
					LR:       rs.sched.LR(st.gstep - 1),
					World:    p,
				}
				if cfg.CheckpointPath != "" {
					ck := checkpoint.State{
						Params:   rep.params,
						BNs:      rep.net.BatchNorms(),
						Velocity: rep.opt.ExportState(rep.params),
						Meta:     &checkpoint.Meta{Epoch: epoch, Step: st.gstep},
					}
					if err := checkpoint.SaveStateFile(cfg.CheckpointPath, ck); err != nil {
						return fmt.Errorf("checkpoint: %w", err)
					}
					rs.savedEpoch = epoch
				}
				if epoch == cfg.Epochs-1 {
					rs.finalPerClass = make([]float64, segdata.NumClasses)
					for k := range rs.finalPerClass {
						if iou, ok := conf.IOU(k); ok {
							rs.finalPerClass[k] = iou
						} else {
							rs.finalPerClass[k] = math.NaN()
						}
					}
					rs.finalFw = conf.FreqWeightedIOU()
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			// Every rank is past the barrier: the epoch's state is final
			// on all of them. Commit it as the rollback target, and let
			// rank 0 mark the epoch recorded — a failure after this
			// point restarts the NEXT epoch.
			rep.gstep = st.gstep
			rep.commit()
			if rank == 0 {
				rs.doneEpoch = epoch
			}
		}
		return nil
	})
	if runErr == nil {
		return nil, nil
	}
	// Map the transport's failed comm ranks back to member slots.
	failed := w.FailedRanks()
	slots := make([]int, 0, len(failed))
	for _, r := range failed {
		if r >= 0 && r < len(members) {
			slots = append(slots, members[r])
		}
	}
	return slots, runErr
}
