// Package train runs real distributed data-parallel training of the
// scaled-down DeepLab-v3+ on the synthetic VOC dataset: every rank is
// a goroutine with its own model replica, gradients are averaged with
// the real collectives through the Horovod runtime, the learning rate
// follows DeepLab's poly schedule with the linear-scaling rule and
// warmup, and evaluation merges per-rank confusion matrices into a
// global mIOU — the paper's accuracy experiment, end to end.
//
// The trainer is fault-tolerant: with a chaos plan armed
// (Config.Chaos) ranks can be crashed at scheduled steps and messages
// dropped, duplicated, or delayed in flight. When an incarnation of
// the world dies, Run restores every rank from the last full
// checkpoint (weights, batch-norm statistics, optimiser velocity, and
// the epoch/step cursor) and resumes; because data order, augmentation
// randomness, and the schedule are all pure functions of
// (seed, rank, epoch, step), a recovered run finishes bit-identically
// to one that never failed — the invariant the restart-equivalence
// test locks in.
package train

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"segscale/internal/checkpoint"
	"segscale/internal/deeplab"
	"segscale/internal/faultinject"
	"segscale/internal/horovod"
	"segscale/internal/metrics"
	"segscale/internal/modelhealth"
	"segscale/internal/netmodel"
	"segscale/internal/nn"
	"segscale/internal/segdata"
	"segscale/internal/telemetry"
	"segscale/internal/tensor"
	"segscale/internal/timeline"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// Config describes one training run.
type Config struct {
	// World is the number of data-parallel ranks.
	World int
	// Arch selects "deeplab" or "fcn".
	Arch string
	// Model sizes the network.
	Model deeplab.Config
	// Epochs over the training shard.
	Epochs int
	// BatchPerRank images per rank per step.
	BatchPerRank int
	// TrainSize / EvalSize are synthetic dataset sizes.
	TrainSize int
	EvalSize  int
	// DataStyle selects the scene generator (VOC-like or urban).
	DataStyle segdata.Style
	// BaseLR is the single-rank learning rate; the schedule scales it
	// by World (linear-scaling rule) after warmup.
	BaseLR float64
	// ScaleLRByWorld applies the linear-scaling rule (Goyal et al.),
	// the paper's weak-scaling recipe where the per-rank batch stays
	// fixed as ranks grow. Disable for strong-scaling comparisons
	// that hold the *effective* batch (World × BatchPerRank)
	// constant — there the effective batch hasn't changed, so
	// neither should the learning rate.
	ScaleLRByWorld bool
	// WarmupFrac is the fraction of total steps spent warming up.
	WarmupFrac float64
	// Augment enables DeepLab's training augmentation: random scale
	// jitter and crop, then a random horizontal flip.
	Augment bool
	// SyncBN synchronises batch-norm statistics across ranks — the
	// standard remedy when the per-rank batch is too small for stable
	// statistics (exactly the situation strong scaling creates).
	SyncBN bool
	// Optimizer selects "sgd" (default) or "lars" — LARS being the
	// large-batch stabiliser the weak-scaling regime calls for.
	Optimizer string
	// GradClip, when positive, caps the global gradient L2 norm.
	GradClip float64
	// CheckpointPath, when set, makes rank 0 write the full training
	// state (weights, batch-norm statistics, optimiser velocity,
	// epoch/step cursor) there after every epoch — what a
	// wall-clock-limited Summit job does between allocations, and the
	// restore point crash recovery rolls back to.
	CheckpointPath string
	// ResumeFrom, when set, loads a checkpoint into every rank before
	// training (after which ranks are trivially in sync).
	ResumeFrom string
	// MixedPrecision enables fp16 training the way the paper's Horovod
	// runs do: master weights, activations, and optimiser state stay
	// float32, gradients cross the wire as binary16
	// (Horovod.FP16Compression is forced on), and dynamic loss scaling
	// keeps small late-training gradients above binary16's underflow
	// floor — overflow steps are skipped with the scale halved, and the
	// scale regrows after a run of good steps (see mixedprec.go).
	MixedPrecision bool
	// LossScale is the initial loss scale for MixedPrecision: zero
	// selects the default (1024); any other value must be a positive
	// power of two so scaling stays mantissa-exact.
	LossScale float64
	// Horovod configures gradient fusion/allreduce. CycleTime and
	// ResponseCache must keep their defaults: only the simulator
	// models the background loop and negotiation they tune.
	Horovod horovod.Config
	// Seed controls data and augmentation randomness.
	Seed int64
	// Chaos, when non-nil, arms deterministic fault injection on the
	// transport: scheduled rank crashes, and message drop/duplication/
	// delay drawn from the plan's seed. A plan with Stragglers is
	// rejected: they model time, which only the performance simulator
	// runs.
	Chaos *faultinject.Plan
	// MaxRestarts bounds how many times Run rebuilds the world after a
	// recoverable failure (rank crash, delivery failure, timeout)
	// before giving up and returning the error. Zero disables
	// recovery. In elastic mode the same budget bounds shrink
	// transitions (scheduled regrows are free).
	MaxRestarts int
	// Elastic switches crash recovery from checkpoint-restart to
	// elastic membership: when a rank dies, the survivors re-form a
	// smaller world in place — model replicas, optimiser state, and
	// the global step carry over, data shards rebalance
	// deterministically over the remaining ranks — and training
	// continues from the top of the interrupted epoch without reading
	// a checkpoint. Both modes run the same incarnation loop; Elastic
	// changes only where rank state comes from, what an epoch boundary
	// records, and how a failure is absorbed (see elastic.go).
	Elastic bool
	// RejoinEpoch, when positive, schedules a regrow: if the world is
	// short-handed when that epoch begins, the dead slots rejoin, get
	// state-synced from a survivor, and the full world finishes the
	// run. Requires Elastic.
	RejoinEpoch int
	// Telemetry, when non-nil, collects per-rank spans and metrics
	// for the whole run: each rank gets a probe on a deterministic
	// step-counter clock (lane "rank<N>", suffixed ".r<K>" for the
	// K-th restarted incarnation), instrumenting the step loop, the
	// Horovod runtime, the collectives, and the transport. Nil (the
	// default) leaves every hot path on its one-branch no-op and must
	// not perturb results in any way.
	Telemetry *telemetry.Collector
	// OnWorld, when non-nil, is called once per incarnation right
	// after the transport world is built and armed (before any rank
	// goroutine starts), with the world and the incarnation number
	// (0 = first attempt). The live observability plane hooks rank
	// liveness (/healthz, /readyz) and flight-recorder dumps on
	// recovery through it. Purely an observer: it must not touch the
	// world beyond reading its state, and nil (the default) must not
	// change results.
	OnWorld func(w *transport.World, incarnation int)
	// StepObs, when non-nil, is notified after every completed
	// training step on every rank. The lane is "rank<N>" and — unlike
	// the telemetry lane — stays stable across restarts, so a
	// wall-timing observer sees the crash-to-recovery gap as one long
	// stall on the affected ranks. Real training deliberately never
	// reads a clock, so the notification carries stepSec = 0 and
	// leaves wall timing to the observer. Implementations
	// must be goroutine-safe; nil (the default) must not change
	// results.
	StepObs telemetry.StepObserver
	// Health, when non-nil, hooks the training-health plane into every
	// rank's step: per-layer gradient norms, update-to-weight ratios,
	// activation statistics, and NaN/Inf divergence sentinels, all
	// with (layer, rank, step, incarnation) provenance. Purely an
	// observer — it reads gradients and activations but never writes
	// them — so nil (the default) and enabled runs compute identical
	// results, and the deterministic goldens are unaffected.
	Health *modelhealth.Plane
}

// DefaultConfig returns a configuration that converges in seconds on
// a CPU.
func DefaultConfig() Config {
	return Config{
		World:          1,
		Arch:           "deeplab",
		Model:          deeplab.DefaultConfig(),
		Epochs:         6,
		BatchPerRank:   4,
		TrainSize:      48,
		EvalSize:       16,
		BaseLR:         0.05,
		ScaleLRByWorld: true,
		WarmupFrac:     0.1,
		Augment:        true,
		SyncBN:         true,
		Optimizer:      "sgd",
		Horovod:        horovod.Default(),
		Seed:           1,
	}
}

func (c Config) validate() error {
	if c.World <= 0 || c.Epochs <= 0 || c.BatchPerRank <= 0 {
		return fmt.Errorf("train: degenerate config (world=%d epochs=%d batch=%d)", c.World, c.Epochs, c.BatchPerRank)
	}
	if c.TrainSize < c.World {
		return fmt.Errorf("train: %d training images cannot shard over %d ranks", c.TrainSize, c.World)
	}
	if c.EvalSize <= 0 {
		return fmt.Errorf("train: empty eval set")
	}
	if c.Arch != "deeplab" && c.Arch != "fcn" {
		return fmt.Errorf("train: unknown arch %q", c.Arch)
	}
	if c.BaseLR <= 0 {
		return fmt.Errorf("train: learning rate %g", c.BaseLR)
	}
	if c.Optimizer != "" && c.Optimizer != "sgd" && c.Optimizer != "lars" {
		return fmt.Errorf("train: unknown optimizer %q", c.Optimizer)
	}
	if c.GradClip < 0 {
		return fmt.Errorf("train: negative gradient clip %g", c.GradClip)
	}
	if c.MaxRestarts < 0 {
		return fmt.Errorf("train: negative restart budget %d", c.MaxRestarts)
	}
	if !validLossScale(c.LossScale) {
		return fmt.Errorf("train: loss scale %g is not a positive power of two", c.LossScale)
	}
	if c.LossScale != 0 && !c.MixedPrecision {
		return fmt.Errorf("train: LossScale=%g without MixedPrecision", c.LossScale)
	}
	if c.RejoinEpoch != 0 {
		if !c.Elastic {
			return fmt.Errorf("train: RejoinEpoch=%d without Elastic", c.RejoinEpoch)
		}
		if c.RejoinEpoch < 0 || c.RejoinEpoch >= c.Epochs {
			return fmt.Errorf("train: RejoinEpoch=%d outside (0, %d)", c.RejoinEpoch, c.Epochs)
		}
	}
	if c.Elastic && c.ResumeFrom != "" {
		return fmt.Errorf("train: Elastic and ResumeFrom are mutually exclusive")
	}
	if c.Chaos != nil {
		if err := c.Chaos.Validate(); err != nil {
			return fmt.Errorf("train: %w", err)
		}
		if len(c.Chaos.Stragglers) > 0 {
			return fmt.Errorf("train: Chaos.Stragglers=%v: only perfsim reads stragglers; real training has no modelled compute time to slow",
				c.Chaos.Stragglers)
		}
	}
	if err := c.Horovod.Validate(); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	if c.Horovod.CycleTime != horovod.Default().CycleTime || c.Horovod.ResponseCache {
		return fmt.Errorf("train: Horovod.CycleTime=%v ResponseCache=%v: only perfsim reads these knobs; the real runtime has no background loop or negotiation to apply them to",
			c.Horovod.CycleTime, c.Horovod.ResponseCache)
	}
	switch a := c.Horovod.Algorithm; a {
	case netmodel.AlgAuto, netmodel.AlgRing, netmodel.AlgRecursiveDoubling, netmodel.AlgRabenseifner,
		netmodel.AlgHierLeader, netmodel.AlgHierTwoLevel:
	default:
		return fmt.Errorf("train: Horovod.Algorithm=%v: the real runtime has no collective for it", a)
	}
	return nil
}

// EpochStats is one epoch's global metrics.
type EpochStats struct {
	Epoch    int
	Loss     float64
	MIOU     float64
	PixelAcc float64
	LR       float64
	// World is the number of ranks that trained this epoch — constant
	// for a fixed world, dipping after a shrink and recovering after a
	// regrow in an elastic run.
	World int
}

// Result is the outcome of a run.
type Result struct {
	Config    Config
	History   []EpochStats
	FinalMIOU float64
	FinalAcc  float64
	// FinalPerClassIOU holds the last epoch's per-class IOU (NaN for
	// classes absent from the eval set).
	FinalPerClassIOU []float64
	// BestMIOU / BestEpoch track the best evaluation seen (papers
	// report best-checkpoint numbers).
	BestMIOU  float64
	BestEpoch int
	// FinalFwIOU is the last epoch's frequency-weighted IOU.
	FinalFwIOU float64
	// Restarts counts how many times the world was rebuilt after a
	// recoverable failure (0 for an unfailed run).
	Restarts int
	// Shrinks / Regrows count elastic membership transitions: worlds
	// re-formed smaller after a rank death, and scheduled rejoins back
	// to full size. Both zero outside elastic mode.
	Shrinks int
	Regrows int
}

// stepBucketsOps spaces the per-rank step-duration histogram from 1
// to 2048 step-clock ticks (operation counts, not seconds).
var stepBucketsOps = telemetry.ExpBuckets(1, 2, 12)

// recoverable reports whether err is a failure checkpoint-restart can
// mask: an injected crash, a poisoned/drained world, a delivery
// failure after retry exhaustion, or an operation timeout. Anything
// else (config, I/O, model errors) propagates immediately.
func recoverable(err error) bool {
	return errors.Is(err, faultinject.ErrCrashed) ||
		errors.Is(err, transport.ErrRankFailed) ||
		errors.Is(err, transport.ErrDeliveryFailed) ||
		errors.Is(err, transport.ErrTimeout)
}

// augRNG returns the augmentation stream for (seed, rank, epoch). It
// is re-derived at every epoch boundary — never carried across epochs
// — so a run restored from an epoch-E checkpoint consumes exactly the
// randomness the unfailed run would have from epoch E+1 on. Restart
// equivalence depends on this.
func augRNG(seed int64, rank, epoch int) *rand.Rand {
	return rand.New(rand.NewSource(seed*31 + int64(rank) + int64(epoch)*1_000_003))
}

// stepsPerEpoch is how many steps every rank of a p-rank world runs in
// an epoch: rank 0's shard, the largest, in batches (a rank a sample
// short wraps).
func (cfg Config) stepsPerEpoch(p int) int {
	return (len(segdata.ShardIDs(cfg.TrainSize, p, 0)) + cfg.BatchPerRank - 1) / cfg.BatchPerRank
}

// Run trains and returns per-epoch metrics, transparently recovering
// from up to MaxRestarts recoverable world failures: one incarnation
// loop for checkpoint restart and elastic membership alike, the modes
// differing only where elastic.go says.
func Run(cfg Config) (*Result, error) {
	run, err := newRunState(cfg)
	if err != nil {
		return nil, err
	}
	if err := run.train(); err != nil {
		return nil, err
	}

	res := &Result{Config: run.cfg, History: run.history,
		FinalPerClassIOU: run.finalPerClass, FinalFwIOU: run.finalFw,
		Restarts: run.restarts + run.shrinks + run.regrows, Shrinks: run.shrinks, Regrows: run.regrows}
	last := run.history[len(run.history)-1]
	res.FinalMIOU = last.MIOU
	res.FinalAcc = last.PixelAcc
	res.BestEpoch = -1
	for _, e := range run.history {
		if e.MIOU > res.BestMIOU {
			res.BestMIOU = e.MIOU
			res.BestEpoch = e.Epoch
		}
	}
	return res, nil
}

// newRunState validates cfg and sets up everything that outlives an
// incarnation.
func newRunState(cfg Config) (*runState, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MixedPrecision {
		// Mixed precision is the trainer-level switch; the wire-level
		// half is Horovod's binary16 compressed allreduce.
		cfg.Horovod.FP16Compression = true
	}
	members, err := transport.NewMembership(cfg.World)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	trainSet := segdata.New(cfg.TrainSize, cfg.Model.InputSize, cfg.Model.InputSize, cfg.Seed)
	trainSet.Style = cfg.DataStyle
	evalSet := segdata.New(cfg.EvalSize, cfg.Model.InputSize, cfg.Model.InputSize, cfg.Seed+1_000_000)
	evalSet.Style = cfg.DataStyle

	totalSteps := cfg.stepsPerEpoch(cfg.World) * cfg.Epochs
	warmup := int(cfg.WarmupFrac * float64(totalSteps))
	lrWorld := cfg.World
	if !cfg.ScaleLRByWorld {
		lrWorld = 1
	}
	return &runState{
		cfg:       cfg,
		mach:      topology.ExactFor(cfg.World),
		trainSet:  trainSet,
		evalSet:   evalSet,
		sched:     nn.NewPolySchedule(cfg.BaseLR, totalSteps, warmup, lrWorld),
		history:   make([]EpochStats, cfg.Epochs),
		doneEpoch: -1,
		probe:     cfg.Telemetry.NewProbe("train", telemetry.NewStepClock()),
		members:   members,
		replicas:  make([]*replica, cfg.World),
	}, nil
}

// train runs incarnations until one finishes, absorbing each failure
// in between.
func (rs *runState) train() error {
	for inc := 0; ; inc++ {
		failedSlots, err := rs.incarnation(rs.members.Members(), rs.doneEpoch+1, inc)
		if err == nil {
			return nil
		}
		if err := rs.absorb(err, failedSlots); err != nil {
			return fmt.Errorf("train: %w", err)
		}
	}
}

// runState carries everything that survives across incarnations of
// the world: datasets, the schedule, accumulated history, the restore
// cursor, the membership and the per-slot replicas. Rank goroutines of
// one incarnation are joined before the next starts, so the
// non-atomic fields are safe.
type runState struct {
	cfg      Config
	mach     topology.Machine
	trainSet *segdata.Dataset
	evalSet  *segdata.Dataset
	sched    nn.PolySchedule

	history       []EpochStats
	finalPerClass []float64
	finalFw       float64

	// doneEpoch is the latest epoch the restore point covers (-1 before
	// any): the epoch rank 0 last checkpointed this run — never the
	// file's own meta, which may be a stale run's — or the last elastic
	// commit.
	doneEpoch int

	probe *telemetry.Probe

	// members is the set of live machine slots (only an elastic shrink
	// removes any); replicas holds each slot's training state (nil for
	// none), kept across incarnations in elastic mode only. A rank
	// goroutine writes only its own slot.
	members  *transport.Membership
	replicas []*replica
	// restarts, shrinks and regrows count absorbed failures and
	// scheduled rejoins.
	restarts, shrinks, regrows int
}

// incarnation builds one world over members — comm rank i stands for
// machine slot members[i] — and trains epochs [startEpoch, Epochs).
// inc numbers the incarnation (0 = first attempt) and gates scheduled
// crashes: a crash planned for incarnation k fires only there, so the
// rebuilt world does not immediately re-die. On failure it also
// reports which member slots died, mapped from the transport's failed
// comm ranks, so an elastic run can shrink around them.
func (rs *runState) incarnation(members []int, startEpoch, inc int) ([]int, error) {
	cfg := rs.cfg
	p := len(members)
	// Deterministic shard rebalance: comm rank i owns the strided shard
	// ShardIDs(TrainSize, p, i), so the epoch's coverage and step count
	// are pure functions of the member count.
	stepsPerEpoch := cfg.stepsPerEpoch(p)
	root, fresh, err := rs.prepareReplicas(members, startEpoch*stepsPerEpoch)
	if err != nil {
		return nil, err
	}

	w, err := transport.NewWorld(p)
	if err != nil {
		return nil, err
	}
	// Label the world so message-edge IDs from this incarnation's
	// traffic never pair with edges recorded before a failure.
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
		if rep == nil {
			rep = fresh()
			rs.replicas[slot] = rep
		}
		st := rs.newRankStep(c, rep, slot, inc, segdata.ShardIDs(cfg.TrainSize, p, rank))
		rt, err := rs.syncState(c, rep, members, root, startEpoch)
		if err != nil {
			return err
		}
		st.rt = rt

		for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
			if cfg.RejoinEpoch > 0 && epoch == cfg.RejoinEpoch && !rs.members.Full() {
				// Same deterministic condition on every rank, evaluated at
				// an epoch boundary where no collective is in flight: all
				// ranks leave together and the driver regrows the world.
				return errRejoin
			}
			// Epoch-deterministic shuffle and augmentation stream,
			// distinct per comm rank, re-derived each epoch (see augRNG).
			// Every rank runs exactly stepsPerEpoch batches (wrapping
			// when its shard is a sample short) so the collectives stay
			// in lockstep.
			perm := rand.New(rand.NewSource(cfg.Seed + int64(epoch)*101 + int64(rank))).Perm(len(st.shard))
			rng := augRNG(cfg.Seed, rank, epoch)
			epochLoss := 0.0
			for s := 0; s < stepsPerEpoch; s++ {
				loss, err := st.step(s, perm, rng)
				if err != nil {
					return err
				}
				epochLoss += loss
			}

			// Global metrics: average loss, merged confusion matrix.
			avgLoss, err := rt.AllreduceScalar(epochLoss / float64(stepsPerEpoch))
			if err != nil {
				return err
			}
			conf := evaluate(rep.net, rs.evalSet, p, rank, rep.ws)
			rep.ws.Reset() // reclaim the last eval batch's activations
			if err := rt.AllreduceCounts(conf.M); err != nil {
				return err
			}
			if rank == 0 {
				if err := rs.record(st, epoch, avgLoss, conf); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			if cfg.Elastic {
				// Every rank is past the barrier: the epoch's state is
				// final on all of them. Commit it as the rollback target,
				// and let rank 0 mark the epoch done — a failure after
				// this point restarts the NEXT epoch.
				rep.commit()
				if rank == 0 {
					rs.doneEpoch = epoch
				}
			}
		}
		return nil
	})
	var slots []int
	for _, r := range w.FailedRanks() {
		if r >= 0 && r < p {
			slots = append(slots, members[r])
		}
	}
	return slots, runErr
}

// record is rank 0's epoch-boundary bookkeeping: the history row, the
// checkpoint, and after the last epoch the per-class IOU. A checkpoint
// this run wrote is fixed mode's restore point; elastic mode records
// its own after the barrier.
func (rs *runState) record(st *rankStep, epoch int, loss float64, conf *metrics.Confusion) error {
	cfg := rs.cfg
	rs.history[epoch] = EpochStats{
		Epoch:    epoch,
		Loss:     loss,
		MIOU:     conf.MeanIOU(),
		PixelAcc: conf.PixelAccuracy(),
		LR:       rs.sched.LR(st.gstep - 1),
		World:    st.c.Size(),
	}
	if cfg.CheckpointPath != "" {
		ck := checkpoint.State{
			Params:   st.params,
			BNs:      st.net.BatchNorms(),
			Velocity: st.opt.ExportState(st.params),
			Meta:     &checkpoint.Meta{Epoch: epoch, Step: st.gstep},
		}
		if st.scaler != nil {
			ck.LossScale = &checkpoint.LossScale{Scale: st.scaler.scale, Good: st.scaler.good}
		}
		if err := checkpoint.SaveStateFile(cfg.CheckpointPath, ck); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if !cfg.Elastic {
			rs.doneEpoch = epoch
		}
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
	return nil
}

// rankStep is one rank's per-incarnation view of its replica, which it
// embeds, plus runtime, observers, shard and batch staging. The step is a
// named method rather than the middle of a closure, so a test can drive
// it alone: TestTrainStepAllocBudget measures it as an incarnation runs
// it. Both recovery modes build it through newRankStep.
type rankStep struct {
	*replica
	cfg        Config
	c          *transport.Comm
	probe      *telemetry.Probe
	obsLane    string
	inc        int
	slot       int // machine slot; the comm rank in a fixed world
	rt         *horovod.Runtime
	sched      nn.PolySchedule
	trainSet   *segdata.Dataset
	shard      []int
	accum      int
	epochSteps int                    // this incarnation's steps per epoch; the last always updates
	health     *modelhealth.Collector // nil unless Config.Health is set
	ids        []int                  // batch id scratch, reused across steps

	// Batch staging, reused across steps like the eval path's buffers:
	// SampleInto fully overwrites the image and clears the labels, so
	// reuse is invisible to the deterministic goldens.
	x      *tensor.Tensor
	labels []int32
}

// newRankStep builds one rank's step state for incarnation inc and
// wires its observation plane: a telemetry probe on a deterministic,
// wall-clock-free step-counter clock, with lanes keyed by machine slot
// (lane "rank<slot>", ".r<inc>" after the first incarnation) so a
// slot's series stays its own as an elastic world changes shape around
// it, and the health collector, re-pointed every incarnation because
// the replica's network may outlive one. The caller attaches the
// runtime once syncState has built it.
//
// It also gives the rank its share of the cores, GOMAXPROCS/world
// kernel workers (at least one), as Horovod pins one process per
// device: the ranks of a world then run side by side instead of each
// fanning every kernel out over every core. Set per incarnation, the
// budget follows the live world through a restart, shrink or regrow.
// Kernel results are bit-identical at any budget.
func (rs *runState) newRankStep(c *transport.Comm, rep *replica, slot, inc int, shard []int) *rankStep {
	cfg := rs.cfg
	rep.ws.SetWorkers(max(1, runtime.GOMAXPROCS(0)/c.Size()))
	obsLane := fmt.Sprintf("rank%d", slot)
	lane := obsLane
	if inc > 0 {
		lane = fmt.Sprintf("rank%d.r%d", slot, inc)
	}
	probe := cfg.Telemetry.NewProbe(lane, telemetry.NewStepClock())
	if probe != nil {
		c.SetProbe(probe)
	}
	var health *modelhealth.Collector
	if cfg.Health != nil {
		health = cfg.Health.Rank(slot, inc, probe)
		rep.net.SetActivationTap(health)
	}
	return &rankStep{
		replica: rep,
		cfg:     cfg, c: c, probe: probe, obsLane: obsLane,
		inc: inc, slot: slot,
		sched: rs.sched, trainSet: rs.trainSet,
		shard:      shard,
		accum:      cfg.Horovod.AccumPasses(),
		epochSteps: cfg.stepsPerEpoch(c.Size()),
		health:     health,
		ids:        make([]int, 0, cfg.BatchPerRank),
		x:          tensor.New(cfg.BatchPerRank, 3, rs.trainSet.H, rs.trainSet.W),
		labels:     make([]int32, cfg.BatchPerRank*rs.trainSet.H*rs.trainSet.W),
	}
}

// step runs one training step for this rank: chaos check, arena reset,
// deterministic batch assembly and augmentation, forward/backward,
// gradient accumulation with fused allreduce and the optimiser update,
// then step accounting. The operation order is pinned by the
// restart-equivalence goldens — do not reorder.
//
// Its steady-state allocations are pinned, one row per branch, by
// TestTrainStepAllocBudget.
func (t *rankStep) step(s int, perm []int, rng *rand.Rand) (float64, error) {
	if t.cfg.Chaos.CrashAt(t.slot, t.gstep, t.inc) {
		t.probe.Counter("faults_injected_total").Inc()
		t.c.Kill()
		return 0, fmt.Errorf("chaos: rank %d crashed at step %d (incarnation %d): %w",
			t.slot, t.gstep, t.inc, faultinject.ErrCrashed)
	}
	stepSpan := t.probe.Span(timeline.PhaseStep, "step")
	// Reclaim last step's activations; their contents are
	// dead once the optimiser update has run.
	t.ws.Reset()
	// Open the health window before the forward so activation taps
	// land in it (nil-safe observer; no effect on the computation).
	t.health.BeginStep(int64(t.gstep))
	// Dropout masks keyed by the global step, not by how
	// many forwards this replica has run — restart-safe.
	t.net.ReseedDropout(int64(t.gstep))
	t.ids = t.ids[:0]
	for k := 0; k < t.cfg.BatchPerRank; k++ {
		t.ids = append(t.ids, t.shard[perm[(s*t.cfg.BatchPerRank+k)%len(t.shard)]])
	}
	x, labels := t.x, t.labels
	t.trainSet.BatchInto(t.ids, x, labels)
	if t.cfg.Augment {
		// DeepLab's recipe: random scale jitter + crop,
		// then random horizontal flip.
		segdata.RandomScaleCropWS(rng, x, labels, 0.75, 1.25, t.ws)
		if rng.Intn(2) == 1 {
			segdata.FlipHoriz(x, labels)
		}
	}
	fwdBwd := t.probe.Span(timeline.PhaseForward, "loss")
	loss := t.net.Loss(x, labels, segdata.IgnoreLabel, true)
	fwdBwd.End()
	if err := t.rt.CommErr(); err != nil {
		return 0, err // a SyncBN reduction failed mid-forward
	}
	// Gradient accumulation (backward_passes_per_step): communicate
	// and update every accum-th pass, and on the epoch's last pass, so
	// that an epoch boundary — where a restart resumes — is always an
	// update boundary. The update averages the passes since the last.
	if passes := s%t.accum + 1; passes == t.accum || s+1 == t.epochSteps {
		if passes > 1 {
			for _, p := range t.params {
				p.G.Scale(1 / float32(passes))
			}
		}
		if t.scaler != nil {
			// Mixed precision: scale → binary16 allreduce → skip-or-step
			// (mixedprec.go). The fp32 branch below is untouched so its
			// operation order stays pinned by the goldens.
			if err := t.mpStep(); err != nil {
				return 0, err
			}
		} else {
			if err := t.rt.AllreduceGrads(t.params); err != nil {
				return 0, err
			}
			if t.cfg.GradClip > 0 {
				nn.GlobalGradClip(t.params, t.cfg.GradClip)
			}
			// Health reads the post-allreduce, post-clip gradients —
			// exactly what the optimiser is about to apply.
			t.health.CollectUpdate(t.params, t.sched.LR(t.gstep))
			t.opt.SetLR(t.sched.LR(t.gstep))
			t.opt.Step(t.params)
			nn.ZeroGrads(t.params)
		}
	}
	t.health.EndStep()
	t.gstep++
	t.probe.Counter("train_steps_total").Inc()
	t.probe.Histogram("train_step_ops", stepBucketsOps).Observe(stepSpan.End())
	if t.cfg.StepObs != nil {
		// Incarnation-free lane: restarts continue the same
		// per-rank throughput series.
		t.cfg.StepObs.ObserveStep(t.obsLane, t.gstep-1, t.cfg.BatchPerRank, 0)
	}
	return loss, nil
}

// evaluate runs this rank's slice of the eval set through the model
// in eval mode and returns its partial confusion matrix. The whole
// path is pooled: batch images come raw from the rank's workspace
// (every element overwritten by the renderer), label and prediction
// buffers are reused across batches, and the arena is Reset between
// batches — so steady-state evaluation, like the training step,
// allocates (almost) nothing. Reuse is numerically invisible: scene
// rendering is a pure function of (seed, id) and argmax fully
// overwrites its output, which keeps the restart-equivalence and
// chaos goldens bit-identical to the heap path.
func evaluate(net deeplab.Segmenter, evalSet *segdata.Dataset, world, rank int, ws *tensor.Workspace) *metrics.Confusion {
	conf := metrics.NewConfusion(segdata.NumClasses)
	ids := segdata.ShardIDs(evalSet.Len(), world, rank)
	const evalBatch = 4
	hw := evalSet.H * evalSet.W
	labels := make([]int32, evalBatch*hw)
	pred := make([]int32, evalBatch*hw)
	for lo := 0; lo < len(ids); lo += evalBatch {
		hi := min(lo+evalBatch, len(ids))
		n := hi - lo
		// Reclaim the previous batch's activations; conf.Update has
		// already consumed everything derived from them.
		ws.Reset()
		x := ws.GetRaw(n, 3, evalSet.H, evalSet.W)
		evalSet.BatchInto(ids[lo:hi], x, labels[:n*hw])
		p := net.PredictInto(x, pred[:n*hw])
		conf.Update(labels[:n*hw], p, segdata.IgnoreLabel)
	}
	return conf
}
