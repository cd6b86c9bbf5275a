// Package perfsim is the discrete-event simulator of distributed
// training on Summit: it reproduces the paper's scaling experiments
// by simulating, in virtual time, the interplay of
//
//   - per-rank compute (calibrated V100 step times with straggler
//     jitter, gradients becoming ready deepest-layer-first),
//   - Horovod's background loop (cycle ticks, coordinator
//     negotiation, response cache, tensor fusion), and
//   - the MPI library's collectives (α–β costs from
//     internal/netmodel, GPU-direct vs host-staged paths).
//
// The key behavioural asymmetry, taken from how Horovod's MPI path
// worked in the paper's era: with a GPU-direct library (MVAPICH2-GDR)
// communication proceeds on separate engines and overlaps the
// backward pass; without it (Spectrum-style host staging) the fusion
// buffer's device↔host copies and the staged transfers serialise
// against compute, which is what destroys default scaling. The
// BlockFraction knob exposes this mechanism for ablation.
package perfsim

import (
	"fmt"
	"math"
	"math/rand"

	"segscale/internal/des"
	"segscale/internal/devsim"
	"segscale/internal/faultinject"
	"segscale/internal/horovod"
	"segscale/internal/iosim"
	"segscale/internal/metrics"
	"segscale/internal/model"
	"segscale/internal/mpiprofile"
	"segscale/internal/netmodel"
	"segscale/internal/telemetry"
	"segscale/internal/timeline"
	"segscale/internal/topology"
	"segscale/internal/traceanalysis"
	"segscale/internal/transport"
)

// Fixed framework constants (TF1-era session overhead and the
// per-negotiation cycles the background thread steals from compute).
const (
	// stepOverheadSec is per-step framework time (session run, optimiser
	// launch) outside both compute and communication.
	stepOverheadSec = 10e-3
	// rankInterruptSec is compute time each rank loses per negotiation
	// round to its background thread.
	rankInterruptSec = 12e-6
	// negotiatePerTensorPerRank is coordinator work per pending
	// tensor per rank without the response cache.
	negotiatePerTensorPerRank = 40e-9
	// cachedTensorFactor shrinks per-tensor negotiation work when the
	// response cache recognises the tensor set.
	cachedTensorFactor = 0.1
)

// Config describes one simulated run.
type Config struct {
	GPUs    int
	Model   *model.Profile
	MPI     *mpiprofile.Profile
	Horovod horovod.Config
	// Steps simulated; the first WarmupSteps are excluded from stats.
	Steps       int
	WarmupSteps int
	Seed        int64
	// Overlap controls whether communication hides behind compute.
	// The default (OverlapAuto) derives it from the MPI library:
	// GPU-direct overlaps, host-staged serialises. The explicit modes
	// exist for the ablation benches.
	Overlap OverlapMode
	// Placement maps MPI ranks onto GPUs: packed (default, jsrun's
	// block order — consecutive ranks share a node) or cyclic
	// (round-robin across nodes, which makes every ring edge cross
	// the NIC). A real jsrun-level knob with real consequences.
	Placement Placement
	// IO, when non-nil, models the input pipeline (GPFS reads,
	// decode workers, prefetch); its per-step stall extends compute.
	IO *iosim.Config
	// BatchPerGPU overrides the profile's per-GPU batch (0 keeps the
	// profile default). Batches that do not fit in V100 memory are
	// rejected, the way a real job would OOM.
	BatchPerGPU int
	// SlowRanks injects persistent stragglers: this many ranks run
	// their compute SlowFactor× slower every step (a thermally
	// throttled or mis-clocked GPU — the failure mode that silently
	// destroys synchronous data-parallel throughput).
	SlowRanks int
	// SlowFactor is the slowdown multiplier for SlowRanks (e.g. 1.2);
	// values ≤ 1 are rejected when SlowRanks > 0.
	SlowFactor float64
	// Chaos, when non-nil, injects the plan's deterministic faults
	// into the simulation: straggler windows multiply the affected
	// rank's compute jitter, and message faults (drop / duplicate /
	// delay, drawn per fused buffer from the plan's seed) cost
	// retransmits, extra wire bytes, and reordering latency. Crash
	// entries are ignored — the simulator models a surviving job's
	// performance; crash-restart behaviour belongs to the real
	// trainer. Same seed, same plan → byte-identical results.
	Chaos *faultinject.Plan
	// Timeline, when non-nil, records the first post-warmup step.
	Timeline *timeline.Recorder
	// Probe, when non-nil, receives simulation metrics on the virtual
	// clock — per-buffer allreduce/pack latency histograms, wire-byte
	// counters, negotiation-cycle counts, and the DES engine's
	// event/queue-depth instruments. Nil (the default) keeps the
	// event loop uninstrumented at one branch per site.
	Probe *telemetry.Probe
	// Attribution, when non-nil, receives one ledger row per
	// (post-warmup step, rank): the rank's step wall time decomposed
	// into buckets that sum to it exactly, with idle waits blamed on
	// the step's pacing (slowest-jitter) rank. The simulator knows the
	// model analytically, so the rows are exact and — for a fixed seed
	// — byte-identical across runs, which is what the regression-gate
	// golden pins. Purely an observer: nil changes nothing.
	Attribution *traceanalysis.LedgerRecorder
}

// Placement selects the MPI-rank → GPU mapping.
type Placement int

const (
	// PlacementPacked puts consecutive ranks on the same node
	// (jsrun's default block order).
	PlacementPacked Placement = iota
	// PlacementCyclic round-robins ranks across nodes.
	PlacementCyclic
)

// OverlapMode selects the comm/compute overlap model.
type OverlapMode int

const (
	// OverlapAuto derives overlap from the MPI profile (the default).
	OverlapAuto OverlapMode = iota
	// OverlapFull forces communication off the compute stream.
	OverlapFull
	// OverlapNone forces communication to serialise with compute.
	OverlapNone
)

// blockFraction is how much of comm time extends compute.
func (c Config) blockFraction() float64 {
	switch c.Overlap {
	case OverlapFull:
		return 0
	case OverlapNone:
		return 1
	default:
		if c.MPI.GPUDirect {
			return 0
		}
		return 1
	}
}

// DefaultSteps is enough for stable averages.
const DefaultSteps = 20

// Canon fills defaults.
func (c Config) Canon() Config {
	if c.Steps == 0 {
		c.Steps = DefaultSteps
	}
	if c.WarmupSteps == 0 {
		c.WarmupSteps = 2
	}
	return c
}

// Result summarises a run.
type Result struct {
	GPUs         int
	BatchPer     int
	StepTimesSec []float64 // post-warmup

	AvgStepSec float64
	ImgPerSec  float64

	// Per-step averages of where time went.
	ComputeSec     float64 // slowest rank's compute, incl. interrupts
	NegotiateSec   float64
	PackSec        float64
	AllreduceSec   float64
	ExposedSec     float64 // comm not hidden behind compute
	DataStallSec   float64 // input-pipeline time not hidden by prefetch
	CyclesPerStep  float64
	BuffersPerStep float64
}

// EfficiencyVs returns throughput relative to perfect scaling from a
// baseline run (normally the 1-GPU result), the paper's scaling
// efficiency.
func (r *Result) EfficiencyVs(base *Result) float64 {
	return metrics.ScalingEfficiency(base.ImgPerSec/float64(base.GPUs), r.ImgPerSec, r.GPUs)
}

// Run simulates distributed training and returns aggregate results.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.Canon()
	if cfg.GPUs <= 0 {
		return nil, fmt.Errorf("perfsim: %d GPUs", cfg.GPUs)
	}
	if cfg.Model == nil || cfg.MPI == nil {
		return nil, fmt.Errorf("perfsim: missing model or MPI profile")
	}
	if err := cfg.Horovod.Validate(); err != nil {
		return nil, err
	}
	if cfg.IO != nil {
		if err := cfg.IO.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.SlowRanks < 0 || cfg.SlowRanks > cfg.GPUs {
		return nil, fmt.Errorf("perfsim: %d slow ranks of %d", cfg.SlowRanks, cfg.GPUs)
	}
	if cfg.SlowRanks > 0 && cfg.SlowFactor <= 1 {
		return nil, fmt.Errorf("perfsim: slow factor %g must exceed 1", cfg.SlowFactor)
	}
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, fmt.Errorf("perfsim: %w", err)
		}
	}

	batch := cfg.Model.BatchPerGPU
	if cfg.BatchPerGPU != 0 {
		batch = cfg.BatchPerGPU
	}
	if !cfg.Model.FitsInMemory(batch) {
		return nil, fmt.Errorf("perfsim: batch %d does not fit on a V100 for %s (max %d)",
			batch, cfg.Model.Name, cfg.Model.MaxBatchPerGPU())
	}

	mach := topology.ForGPUs(cfg.GPUs)
	net, err := netmodel.New(mach, cfg.MPI)
	if err != nil {
		return nil, err
	}
	if cfg.Horovod.FP16Compression {
		// Compressed collectives feed the model halved byte counts; tell
		// it the wire element is 2 bytes so the reduce-flops term still
		// prices the full element count.
		net.ElemBytes = 2
	}
	gpu := devsim.New(cfg.Model)
	rng := rand.New(rand.NewSource(cfg.Seed + int64(cfg.GPUs)*7919))

	// Calibrate the compute base so the *simulated* single-GPU
	// throughput (which includes step overhead and mean jitter)
	// reproduces the paper's measured rate.
	rawStep := gpu.StepTime(batch)
	meanJitter := 1 + gpu.JitterStd*math.Sqrt(2/math.Pi)
	calib := (rawStep - stepOverheadSec) / (rawStep * meanJitter)
	if calib <= 0 {
		return nil, fmt.Errorf("perfsim: step time %.3gs too small for %.3gs overhead", rawStep, stepOverheadSec)
	}

	world, err := placeRanks(cfg.GPUs, mach, cfg.Placement)
	if err != nil {
		return nil, err
	}
	sim := &stepSim{
		cfg:         cfg,
		mach:        mach,
		net:         net,
		gpu:         gpu,
		rng:         rng,
		calibFactor: calib,
		batch:       batch,
		world:       world,
		dsim:        des.New(),
		tensors:     gpu.TensorReadyTimes(batch),
	}
	sim.dsim.MaxEvents = 5_000_000
	sim.dsim.SetProbe(cfg.Probe)
	sim.readySec = make([]float64, len(sim.tensors))
	sim.sizes = make([]int, len(sim.tensors))
	sim.jitFactor = make([]float64, cfg.GPUs)

	res := &Result{GPUs: cfg.GPUs, BatchPer: batch}
	now := 0.0
	accum := cfg.Horovod.AccumPasses()
	stepHist := cfg.Probe.Histogram("perfsim_step_seconds", stepBucketsSec)
	for step := 0; step < cfg.Steps; step++ {
		recordTimeline := cfg.Timeline != nil && step == cfg.WarmupSteps
		// With gradient accumulation only every accum-th backward
		// pass communicates (hvd backward_passes_per_step).
		doComm := (step+1)%accum == 0
		st := sim.runStep(now, recordTimeline, doComm)
		now = st.endSec
		if step < cfg.WarmupSteps {
			continue
		}
		d := st.endSec - st.startSec
		stepHist.Observe(d)
		if cfg.Attribution != nil {
			sim.attribute(cfg.Attribution, step, st)
		}
		res.StepTimesSec = append(res.StepTimesSec, d)
		res.ComputeSec += st.computeSec
		res.NegotiateSec += st.negotiateSec
		res.PackSec += st.packSec
		res.AllreduceSec += st.allreduceSec
		res.ExposedSec += st.exposedSec
		res.DataStallSec += st.dataStallSec
		res.CyclesPerStep += float64(st.cycles)
		res.BuffersPerStep += float64(st.buffers)
	}
	n := float64(len(res.StepTimesSec))
	res.AvgStepSec = metrics.Mean(res.StepTimesSec)
	res.ImgPerSec = float64(batch*cfg.GPUs) / res.AvgStepSec
	res.ComputeSec /= n
	res.NegotiateSec /= n
	res.PackSec /= n
	res.AllreduceSec /= n
	res.ExposedSec /= n
	res.DataStallSec /= n
	res.CyclesPerStep /= n
	res.BuffersPerStep /= n
	return res, nil
}

// Telemetry bucket ladders, in virtual seconds: steps run
// milliseconds-to-seconds, per-buffer communication microseconds and
// up.
var (
	stepBucketsSec = telemetry.ExpBuckets(1e-3, 2, 14)
	commBucketsSec = telemetry.ExpBuckets(1e-6, 4, 12)
)

// placeRanks returns, for each MPI rank, the global GPU slot it runs
// on under the chosen placement.
func placeRanks(n int, mach topology.Machine, p Placement) ([]int, error) {
	out := make([]int, n)
	switch p {
	case PlacementPacked:
		for i := range out {
			out[i] = i
		}
	case PlacementCyclic:
		if n != mach.Ranks() {
			return nil, fmt.Errorf("perfsim: cyclic placement needs full nodes (%d ranks on %s)", n, mach)
		}
		for i := range out {
			out[i] = (i%mach.Nodes)*mach.GPUsPer + i/mach.Nodes
		}
	default:
		return nil, fmt.Errorf("perfsim: unknown placement %d", p)
	}
	return out, nil
}

// stepSim holds cross-step state.
type stepSim struct {
	cfg         Config
	mach        topology.Machine
	net         *netmodel.Model
	gpu         *devsim.GPU
	rng         *rand.Rand
	calibFactor float64 // compute-time scale from throughput calibration
	batch       int
	world       []int
	step        int
	msgSeq      uint64 // fused-buffer sequence for chaos fault draws

	// Step-loop pools, reused across runStep calls so a long simulation
	// does not allocate per step. dsim is safe to share because virtual
	// time only moves forward: each step schedules at t0 ≥ the previous
	// step's final event time, and Run drains the queue completely.
	dsim     *des.Sim
	tensors  []devsim.TensorReady // gradient schedule: pure function of batch
	readySec []float64
	sizes    []int
	groups   [][]int // fusion-plan storage recycled via PlanFusionInto
	// jitFactor holds the most recent step's per-rank jitter multipliers — the raw
	// material of per-rank attribution, kept out of the hot step loop's
	// allocation budget by pooling.
	jitFactor []float64
}

// stepStats is one step's outcome. All durations are virtual seconds.
type stepStats struct {
	startSec, endSec float64
	computeSec       float64
	negotiateSec     float64
	packSec          float64
	allreduceSec     float64
	exposedSec       float64
	dataStallSec     float64
	cycles           int
	buffers          int
}

// runStep simulates one synchronous data-parallel training step
// starting at virtual time t0. doComm gates the allreduce (false for
// the accumulate-only passes of gradient accumulation).
//
// The inner loop is the simulator's hot path: a 132-GPU sweep runs it
// hundreds of times with tens of negotiation cycles each, so per-step
// state (DES engine, ready/size vectors, fusion-plan storage) comes
// from the stepSim pools above.
//
// TestSimulatorAllocBudget pins a whole Run, one row per branch.
func (s *stepSim) runStep(t0 float64, record bool, doComm bool) stepStats {
	cfg := s.cfg
	batch := s.batch
	p := cfg.GPUs
	cached := cfg.Horovod.ResponseCache && s.step > 0
	stepIdx := s.step
	s.step++

	// Straggler model: the step is paced by the slowest rank; the
	// max of p half-normal jitters grows ~√(2 ln p). Persistent slow
	// ranks multiply their jitter by the configured factor.
	jmax := 1.0
	for r := 0; r < p; r++ {
		j := s.gpu.Jitter(s.rng)
		if r < cfg.SlowRanks {
			j *= cfg.SlowFactor
		}
		j *= cfg.Chaos.StragglerFactor(r, stepIdx)
		s.jitFactor[r] = j
		if j > jmax {
			jmax = j
		}
	}

	fwd := s.gpu.ForwardTime(batch) * jmax * s.calibFactor
	bwdDur := s.gpu.BackwardTime(batch) * jmax * s.calibFactor
	tensors := s.tensors
	st := stepStats{startSec: t0}

	// Input-pipeline stall: the step cannot start until its batch is
	// materialised; the stall is paced by the slowest rank's pipeline
	// too, so it rides inside the jittered compute window.
	if cfg.IO != nil {
		stall := cfg.IO.StallPerStep(p, batch, fwd+bwdDur)
		st.dataStallSec = stall
		t0 += stall
	}

	if record {
		s.recordCompute(t0, fwd, bwdDur)
	}

	if p == 1 || !doComm {
		st.computeSec = fwd + bwdDur
		st.endSec = t0 + st.computeSec + stepOverheadSec
		return st
	}

	// ready[i]: virtual time gradient i is available on the slowest
	// rank (scaled by jmax).
	ready := s.readySec
	sizes := s.sizes
	for i, tr := range tensors {
		ready[i] = t0 + fwd + tr.Offset*jmax*s.calibFactor
		sizes[i] = tr.Bytes
	}

	cycle := cfg.Horovod.CycleTime.Seconds()
	alg := cfg.Horovod.ResolveAlgorithm()

	// computeDelay accumulates compute-side extensions: background-
	// thread interrupts plus (for host-staged libraries) the comm
	// activity that serialises against the compute stream.
	var computeDelay float64
	computeEnd := func() float64 { return t0 + fwd + bwdDur + computeDelay }

	reduced := 0
	next := 0 // tensors are ready in order; next unreduced index
	var lastCommDone float64

	dsim := s.dsim
	var tick func()
	commFree := t0

	tick = func() {
		now := dsim.Now()
		st.cycles++
		cfg.Probe.Counter("perfsim_cycles_total").Inc()

		// Coordinator negotiation round.
		pending := 0
		for i := next; i < len(ready); i++ {
			if ready[i]+computeDelay <= now {
				pending++
			} else {
				break
			}
		}
		perTensor := negotiatePerTensorPerRank
		if cached {
			perTensor *= cachedTensorFactor
		}
		dNeg := netmodel.NegotiationTime(p) + float64(pending)*float64(p)*perTensor
		st.negotiateSec += dNeg
		if now < computeEnd() {
			computeDelay += rankInterruptSec
		}
		if record {
			s.cfg.Timeline.Add("coordinator", timeline.PhaseNegotiate,
				fmt.Sprintf("cycle%d", st.cycles), now, now+dNeg)
		}
		busyUntil := now + dNeg

		if pending > 0 {
			s.groups = horovod.PlanFusionInto(s.groups, sizes[next:next+pending], cfg.Horovod.FusionThreshold)
			groups := s.groups
			for _, g := range groups {
				bytes := 0
				for range g {
					bytes += sizes[next]
					next++
				}
				reduced += len(g)
				st.buffers++

				packT := 2 * float64(bytes) / cfg.MPI.FusionPackBW // pack + unpack
				wireBytes := bytes
				if cfg.Horovod.FP16Compression {
					// fp16 compression halves wire volume. The casts fuse
					// into the pack/unpack kernels (they re-read what the
					// memcpy already touches), so the extra memory traffic
					// is the binary16 payload written at pack plus the one
					// re-read at unpack — bytes/2 each way.
					wireBytes = bytes / 2
					packT += float64(bytes) / cfg.MPI.FusionPackBW
				}
				// Chaos: draw this buffer's fate from the plan's seed —
				// pure hashing, so a rerun with the same plan costs
				// exactly the same virtual time.
				var fault transport.Fault
				if cfg.Chaos != nil {
					s.msgSeq++
					fault = cfg.Chaos.Message(0, p-1, st.buffers, 0, s.msgSeq)
				}
				if fault == transport.FaultDuplicate {
					wireBytes *= 2 // the spurious copy crosses the wire too
				}
				arT := s.net.Allreduce(alg, s.world, wireBytes)
				switch fault {
				case transport.FaultDrop:
					arT *= 2 // lost buffer, one full retransmit
				case transport.FaultDelay:
					arT *= 1.5 // reordered behind other traffic
				}
				if fault != transport.FaultNone {
					cfg.Probe.Counter("faults_injected_total").Inc()
				}
				st.packSec += packT
				st.allreduceSec += arT
				cfg.Probe.Counter("perfsim_buffers_total").Inc()
				cfg.Probe.Counter("perfsim_wire_bytes").Add(float64(wireBytes))
				cfg.Probe.Histogram("perfsim_pack_seconds", commBucketsSec).Observe(packT)
				cfg.Probe.Histogram("perfsim_allreduce_seconds", commBucketsSec).Observe(arT)
				if record {
					s.cfg.Timeline.Add("coordinator", timeline.PhaseMemcpy,
						fmt.Sprintf("buf%d(%dB)", st.buffers, bytes), busyUntil, busyUntil+packT)
					s.cfg.Timeline.Add("coordinator", timeline.PhaseAllreduce,
						fmt.Sprintf("buf%d(%dB)", st.buffers, bytes), busyUntil+packT, busyUntil+packT+arT)
				}
				busyUntil += packT + arT
				// Host-staged libraries steal the compute stream for
				// the staging copies and progress engine.
				if now < computeEnd() {
					computeDelay += (packT + arT) * cfg.blockFraction()
				}
			}
		}
		commFree = busyUntil
		lastCommDone = busyUntil

		if reduced == len(ready) {
			return // step's communication complete
		}
		nextTick := now + cycle
		if commFree > nextTick {
			nextTick = commFree
		}
		dsim.At(nextTick, tick)
	}
	dsim.At(t0+cycle, tick)
	dsim.Run()

	st.computeSec = fwd + bwdDur + computeDelay
	ce := computeEnd()
	st.exposedSec = computeDelay + math.Max(0, lastCommDone-ce)
	end := math.Max(ce, lastCommDone) + stepOverheadSec
	st.endSec = end
	return st
}

// attribute converts one finished step into per-rank ledger rows. It
// runs outside the hot step loop (once per post-warmup step, only when
// a recorder is attached) and reads the pooled per-rank jitter draws
// runStep left behind.
//
// The decomposition mirrors runStep's own timing algebra, so the
// buckets sum to the step's wall time exactly:
//
//	wall = stall + (fwd+bwd)·jmax + computeDelay + exposedTail + overhead
//
// Rank r's row replaces (fwd+bwd)·jmax with its own compute
// (fwd+bwd)·j_r plus an idle_wait of (jmax−j_r)·(fwd+bwd) — the time r
// stood blocked on the step's pacing rank, which is who the blame edge
// names. The exposed tail (communication compute could not hide) is
// split wire-first into allreduce_wire and pack, matching how the tail
// actually ends in the model; whatever the modelled comm cannot explain
// (cycle-tick quantisation, negotiation gaps) stays in exposed_comm.
func (s *stepSim) attribute(rec *traceanalysis.LedgerRecorder, step int, st stepStats) {
	// Same expression order as runStep, so the float rounding matches.
	fwdj := s.gpu.ForwardTime(s.batch) * s.calibFactor
	bwdj := s.gpu.BackwardTime(s.batch) * s.calibFactor
	jmax, pace := 1.0, -1
	for r, j := range s.jitFactor {
		if j > jmax {
			jmax, pace = j, r
		}
	}
	delay := st.computeSec - (fwdj+bwdj)*jmax
	if delay < 0 {
		delay = 0 // float dust from re-deriving computeDelay
	}
	tail := st.exposedSec - delay
	if tail < 0 {
		tail = 0
	}
	wire := math.Min(st.allreduceSec, tail)
	pack := math.Min(st.packSec, tail-wire)
	for r, j := range s.jitFactor {
		var b traceanalysis.BucketSet
		b[traceanalysis.BucketDataStall] = st.dataStallSec
		b[traceanalysis.BucketForward] = fwdj * j
		b[traceanalysis.BucketBackward] = bwdj * j
		b[traceanalysis.BucketInterrupts] = delay
		b[traceanalysis.BucketPack] = pack
		b[traceanalysis.BucketWire] = wire
		b[traceanalysis.BucketIdleWait] = (jmax - j) * (fwdj + bwdj)
		b[traceanalysis.BucketExposed] = tail - wire - pack
		b[traceanalysis.BucketOverhead] = stepOverheadSec
		row := traceanalysis.StepAttribution{
			Step: step, Rank: r, StepSec: b.Sum(), Buckets: b, BlameRank: -1,
		}
		if pace >= 0 && pace != r && b[traceanalysis.BucketIdleWait] > 0 {
			row.BlameRank = pace
			// A synthetic edge in the standard form: the pacing rank's
			// gradient contribution is the message rank r waited on.
			row.BlameEdge = timeline.Edge{Src: pace, Dst: r, Seq: uint64(step)}.String()
		}
		rec.Record(row)
	}
}

// recordCompute writes the compute lanes of the timeline.
func (s *stepSim) recordCompute(t0, fwd, bwd float64) {
	s.cfg.Timeline.Add("rank-slowest", timeline.PhaseForward, "fwd", t0, t0+fwd)
	s.cfg.Timeline.Add("rank-slowest", timeline.PhaseBackward, "bwd", t0+fwd, t0+fwd+bwd)
}
