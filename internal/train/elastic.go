package train

import (
	"errors"
	"fmt"

	"segscale/internal/checkpoint"
	"segscale/internal/deeplab"
	"segscale/internal/horovod"
	"segscale/internal/nn"
	"segscale/internal/tensor"
	"segscale/internal/timeline"
	"segscale/internal/transport"
)

// Recovery. Checkpoint restart and elastic membership run one
// incarnation loop with a different restore point; cfg.Elastic picks
// the mode at three places:
//
//  1. Where rank state comes from when an incarnation starts
//     (prepareReplicas, syncState): fresh replicas plus the checkpoint,
//     or surviving replicas rolled back to their commit and state-synced.
//  2. What an epoch boundary records (runState.record, and the commit
//     after incarnation's barrier): the checkpoint file, or the commit.
//  3. How a failure is absorbed (absorb): rebuild the same world, or
//     shrink it; a scheduled rejoin regrows it for free.
//
// Elastic determinism rests on the collectives being globally
// synchronizing: after a kill, every survivor fails inside the same
// global step before any state divergence can be observed (failed
// collectives never write back, the optimiser only steps after a
// successful allreduce), so the survivor set leaves the incarnation
// bit-identical across reruns of the same seed; rollback and the state
// sync erase whatever the torn step left behind.

// errRejoin is the in-band signal every rank returns, in lockstep, at
// the top of cfg.RejoinEpoch when the world is short-handed: the
// driver regrows the membership and starts a new incarnation there.
var errRejoin = errors.New("train: scheduled rejoin")

// replica is one slot's training state: network, workspace, optimiser,
// global step cursor and (under MixedPrecision) loss scaler. Elastic
// mode keeps it across world transitions, which is exactly what
// distinguishes elastic resume from checkpoint restart.
type replica struct {
	net    deeplab.Segmenter
	ws     *tensor.Workspace
	params []*nn.Param
	opt    nn.Optimizer
	gstep  int         // global step counter, continuous across incarnations
	scaler *lossScaler // non-nil only under MixedPrecision

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
// velocity, the global step cursor, and the loss scaler's scale and
// good-step count.
type replicaSnap struct {
	params [][]float32
	bnMean [][]float64
	bnVar  [][]float64
	vel    [][]float32
	gstep  int
	scale  float64
	good   int
}

// newReplica builds one slot's replica at global step gstep. A
// non-nil scaler seeds the new replica's loss-scaler state: a slot
// rejoining an elastic world takes a survivor's.
func (rs *runState) newReplica(gstep int, scaler *lossScaler) *replica {
	cfg := rs.cfg
	var net deeplab.Segmenter
	if cfg.Arch == "fcn" {
		net = deeplab.NewFCN(cfg.Model)
	} else {
		net = deeplab.New(cfg.Model)
	}
	// Every activation and kernel scratch buffer this replica touches
	// comes from one arena, Reset at each step boundary: after warmup a
	// training step allocates (almost) nothing. Reuse is numerically
	// invisible — pooled buffers are either zeroed or fully overwritten
	// before use — so the deterministic goldens are unaffected.
	ws := tensor.NewWorkspace()
	net.SetWorkspace(ws)
	var opt nn.Optimizer
	if cfg.Optimizer == "lars" {
		opt = nn.NewLARS(rs.sched.LR(0))
	} else {
		opt = nn.NewSGD(rs.sched.LR(0))
	}
	rep := &replica{net: net, ws: ws, params: net.Params(), opt: opt, gstep: gstep, scaler: scalerFor(cfg)}
	if rep.scaler != nil && scaler != nil {
		*rep.scaler = *scaler
	}
	return rep
}

// commit snapshots the replica's live state. Called at every epoch
// boundary (after the barrier) and once after the incarnation's
// state sync, so a rollback target always exists.
func (r *replica) commit() {
	if r.saved == nil {
		r.saved = &replicaSnap{}
	}
	s := r.saved
	if len(s.params) != len(r.params) {
		s.params = make([][]float32, len(r.params))
	}
	for i, p := range r.params {
		s.params[i] = append(s.params[i][:0], p.W.Data...)
	}
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
	if r.scaler != nil {
		s.scale, s.good = r.scaler.scale, r.scaler.good
	}
}

// rollback restores the last committed state (a no-op before the
// first commit).
func (r *replica) rollback() error {
	s := r.saved
	if s == nil {
		return nil
	}
	for i, p := range r.params {
		copy(p.W.Data, s.params[i])
	}
	for i, bn := range r.net.BatchNorms() {
		copy(bn.RunningMean, s.bnMean[i])
		copy(bn.RunningVar, s.bnVar[i])
	}
	r.gstep = s.gstep
	if r.scaler != nil {
		r.scaler.scale, r.scaler.good = s.scale, s.good
	}
	if err := r.opt.ImportState(r.params, s.vel); err != nil {
		return fmt.Errorf("rollback: %w", err)
	}
	return nil
}

// prepareReplicas is decision 1's driver side. It returns the comm
// rank the elastic state sync broadcasts from, and the constructor a
// rank goroutine calls for a slot with no replica (so models build in
// parallel): every slot in fixed mode, whose replicas absorb drops,
// and starting at gstep. Elastic survivors roll back to their last
// commit — only committed state is reproducible across reruns — and
// the lowest-ranked one is the sync root, whose global step and loss
// scale a rejoining slot starts from. With no survivor root 0 is fine:
// the broadcast just makes fresh replicas identical in value.
func (rs *runState) prepareReplicas(members []int, gstep int) (root int, fresh func() *replica, err error) {
	var ref *replica
	for i, s := range members {
		rep := rs.replicas[s]
		if rep == nil {
			continue
		}
		if err := rep.rollback(); err != nil {
			return 0, nil, err
		}
		if ref == nil {
			root, ref = i, rep
		}
	}
	var scaler *lossScaler
	if ref != nil {
		gstep = ref.gstep
		if ref.scaler != nil {
			// A copy: the survivor's own scaler moves once its rank steps.
			s := *ref.scaler
			scaler = &s
		}
	}
	return root, func() *replica { return rs.newReplica(gstep, scaler) }, nil
}

// syncState builds the rank's runtime, brings its replica into
// agreement with the rest of the world — decision 1, rank side — and
// points SyncBN at the runtime. The two runtime constructors stay
// distinct: under AlgHierLeader they pick different collectives.
func (rs *runState) syncState(c *transport.Comm, rep *replica, members []int, root, startEpoch int) (*horovod.Runtime, error) {
	cfg := rs.cfg
	var rt *horovod.Runtime
	var err error
	if cfg.Elastic {
		rt, err = horovod.NewElasticRuntime(c, rs.mach, members, cfg.Horovod)
		if err == nil {
			err = broadcastState(rt, rep, root)
		}
	} else {
		rt, err = horovod.NewRuntime(c, rs.mach, cfg.Horovod)
		if err == nil {
			err = rs.restore(rep, startEpoch)
		}
		if err == nil {
			// After a restore the file is the agreement point and this
			// is a no-op, but it keeps every start on one schedule.
			err = rt.BroadcastParams(rep.params)
		}
	}
	if err != nil {
		return nil, err
	}
	syncBN := cfg.SyncBN && len(members) > 1
	for _, bn := range rep.net.BatchNorms() {
		bn.Sync = nil
		if syncBN {
			// The sync closure fires mid-forward where no error can be
			// returned; failures park in the runtime's sticky slot and
			// surface at the next step boundary.
			bn.Sync = func(buf []float64) {
				rt.RecordCommErr(rt.AllreduceSumFloat64(buf))
			}
		}
	}
	return rt, nil
}

// restore loads a fixed-mode replica's starting state. After a crash
// every rank restores the full state — weights, float64 batch-norm
// statistics, optimiser velocity, loss scale — from the checkpoint
// this run last wrote; a first start may warm-start its weights from
// ResumeFrom.
func (rs *runState) restore(rep *replica, startEpoch int) error {
	cfg := rs.cfg
	switch {
	case startEpoch > 0:
		st := checkpoint.State{Params: rep.params, BNs: rep.net.BatchNorms()}
		if err := checkpoint.LoadStateFile(cfg.CheckpointPath, &st); err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		if st.Meta == nil || st.Meta.Epoch != startEpoch-1 {
			return fmt.Errorf("restore: checkpoint %q is not the epoch-%d snapshot this run wrote", cfg.CheckpointPath, startEpoch-1)
		}
		if st.Velocity != nil {
			if err := rep.opt.ImportState(rep.params, st.Velocity); err != nil {
				return fmt.Errorf("restore: %w", err)
			}
		}
		if ls := st.LossScale; ls != nil && rep.scaler != nil {
			rep.scaler.scale, rep.scaler.good = ls.Scale, ls.Good
		}
	case cfg.ResumeFrom != "":
		if err := checkpoint.LoadFile(cfg.ResumeFrom, rep.params, rep.net.BatchNorms()); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
	}
	return nil
}

// broadcastState is the elastic state sync: every incarnation starts
// by making all replicas bit-identical to the sync root's —
// parameters, float64 batch-norm statistics, optimiser velocity — and
// by zeroing gradients (the torn step may have left them partially
// averaged). Uniform across incarnations, so the wire schedule never
// depends on why the world was rebuilt. The loss scaler needs no
// collective: prepareReplicas seeds every rejoining replica's from a
// survivor, and survivors agree after rollback.
func broadcastState(rt *horovod.Runtime, rep *replica, root int) error {
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
	// First commit of the incarnation: the freshly synced state is the
	// rollback target should this incarnation die before its first
	// epoch boundary.
	rep.commit()
	return nil
}

// absorb decides how the run survives a failed incarnation — decision
// 3 — or returns the error when it cannot. A scheduled rejoin regrows
// the membership for free: the revived slots' replicas are stale
// (frozen at their death), so they are dropped and rebuilt from a
// survivor. Any other failure must be recoverable and within the
// MaxRestarts budget. Fixed mode then rebuilds the same world from
// fresh replicas, restoring the epoch after the last checkpoint this
// run wrote — or from scratch, just as deterministic, before the
// first. Elastic mode shrinks the membership around the dead slots.
func (rs *runState) absorb(err error, failedSlots []int) error {
	if errors.Is(err, errRejoin) {
		revived := rs.members.RestoreAll()
		for _, s := range revived {
			rs.replicas[s] = nil
		}
		rs.regrows++
		rs.probe.Counter("elastic_regrows_total").Inc()
		rs.probe.Mark(timeline.PhaseRecovery, fmt.Sprintf("regrow%d: +%d slot(s)", rs.regrows, len(revived)))
		return nil
	}
	if !recoverable(err) || rs.restarts+rs.shrinks >= rs.cfg.MaxRestarts {
		return err
	}
	if !rs.cfg.Elastic {
		clear(rs.replicas)
		rs.restarts++
		rs.probe.Counter("recoveries_total").Inc()
		// Leave an instantaneous RECOVERY event in the trace and the
		// flight-recorder ring, so a post-crash dump shows where the
		// pre-crash window ends and the restart begins.
		rs.probe.Mark(timeline.PhaseRecovery, fmt.Sprintf("restart%d: %v", rs.restarts, err))
		return nil
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
		rs.replicas[s] = nil
	}
	rs.shrinks++
	rs.probe.Counter("elastic_shrinks_total").Inc()
	rs.probe.Mark(timeline.PhaseRecovery, fmt.Sprintf("shrink%d: -%v → %d rank(s): %v",
		rs.shrinks, failedSlots, rs.members.Size(), err))
	return nil
}
