package main

//seglint:file-ignore hotalloc the step log is the benchmark's edge observer: it exists to read the clock the trainer never does, its slices are sized up front so appends do not grow, and ReadMemStats and onFirst run once, at the first notification

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"segscale/pkg/summitseg"
)

// stepLog is the one observer an untraced run attaches: it stamps the
// arrival of every rank-0 step notification with the harness's own
// clock (the trainer never reads one). Rank 0 is one goroutine per
// incarnation and incarnations run one after another, so the log needs
// no lock; other ranks' notifications return on the lane compare.
type stepLog struct {
	spawn time.Time
	// onFirst, when set, runs at the first notification (setup probes
	// report and exit there).
	onFirst func(setup time.Duration)
	steps   []int
	at      []time.Duration // since spawn
	mem0    runtime.MemStats
}

func newStepLog(spawn time.Time, capacity int) *stepLog {
	// Capacity up front: growing the log inside the measured window
	// would count the harness's own allocations in allocs_per_step.
	return &stepLog{spawn: spawn, steps: make([]int, 0, capacity), at: make([]time.Duration, 0, capacity)}
}

func (l *stepLog) ObserveStep(lane string, step, _ int, _ float64) {
	if lane != "rank0" {
		return
	}
	now := time.Since(l.spawn)
	if len(l.steps) == 0 {
		if l.onFirst != nil {
			l.onFirst(now)
		}
		runtime.ReadMemStats(&l.mem0)
	}
	l.steps = append(l.steps, step)
	l.at = append(l.at, now)
}

// trainRun is what one observed call of summitseg.Train leaves behind.
type trainRun struct {
	cfg  summitseg.TrainConfig
	log  *stepLog
	res  *summitseg.TrainResult
	err  error
	end  time.Duration // Train returned, since spawn
	mem1 runtime.MemStats
}

// runTrain calls summitseg.Train with a stepLog attached next to
// whatever observers cfg already carries.
func runTrain(cfg summitseg.TrainConfig, spawn time.Time, onFirst func(time.Duration)) *trainRun {
	total := cfg.Epochs * stepsPerEpoch(cfg)
	log := newStepLog(spawn, 2*total)
	log.onFirst = onFirst
	cfg.StepObs = summitseg.MultiStepObserver(cfg.StepObs, log)
	r := &trainRun{cfg: cfg, log: log}
	r.res, r.err = summitseg.Train(cfg)
	r.end = time.Since(spawn)
	runtime.ReadMemStats(&r.mem1)
	return r
}

// usefulSteps is the step count the task asks for; steps redone after
// a rollback are work, not progress.
func (r *trainRun) usefulSteps() int { return r.cfg.Epochs * stepsPerEpoch(r.cfg) }

// intervalsMS returns the gaps between consecutive rank-0
// notifications, split into within-epoch steps and epoch tails (the
// gap that spans eval, the metric allreduces, the checkpoint and the
// barrier). Gaps that span a crash are neither: recoveryMS reports
// them.
func (r *trainRun) intervalsMS() (steps, tails []float64) {
	spe := stepsPerEpoch(r.cfg)
	for i := 1; i < len(r.log.steps); i++ {
		prev, cur := r.log.steps[i-1], r.log.steps[i]
		ms := float64(r.log.at[i]-r.log.at[i-1]) / float64(time.Millisecond)
		switch {
		case cur != prev+1:
			// rollback: the step index went backwards
		case cur%spe == 0:
			tails = append(tails, ms)
		default:
			steps = append(steps, ms)
		}
	}
	return steps, tails
}

// recoveryMS is the time from the last notification before a crash to
// the first notification of a step index above the pre-crash maximum:
// restart, checkpoint load, and the redone steps. Zero without a crash.
func (r *trainRun) recoveryMS() float64 {
	for i := 1; i < len(r.log.steps); i++ {
		if r.log.steps[i] > r.log.steps[i-1] {
			continue
		}
		high := r.log.steps[i-1]
		for j := i; j < len(r.log.steps); j++ {
			if r.log.steps[j] > high {
				return float64(r.log.at[j]-r.log.at[i-1]) / float64(time.Millisecond)
			}
		}
	}
	return 0
}

// epochsToTarget returns the 1-based count of epochs run when eval
// mIOU first reached target, or 0 if it never did.
func epochsToTarget(res *summitseg.TrainResult, target float64) int {
	for _, e := range res.History {
		if e.MIOU >= target {
			return e.Epoch + 1
		}
	}
	return 0
}

// timeToTargetS is first notification → the notification that follows
// the first epoch whose eval mIOU reached target (Train returning, if
// that epoch was the last). Completed epochs are checkpointed before a
// crash can roll back past them, so the first arrival of the next
// epoch's first step is the one that followed the eval.
func (r *trainRun) timeToTargetS(target float64) float64 {
	n := epochsToTarget(r.res, target)
	if n == 0 {
		return 0
	}
	end := r.end
	for i, s := range r.log.steps {
		if s == n*stepsPerEpoch(r.cfg) {
			end = r.log.at[i]
			break
		}
	}
	return (end - r.log.at[0]).Seconds()
}

// addTrainMetrics fills out with everything one untraced run yields,
// runs the output checks, and counts operations: one per rank-0 step
// notification, failed when its epoch's loss is not finite or the run
// fails a check.
func (r *trainRun) addTrainMetrics(w *workload, out *result) {
	out.Attempted = max(len(r.log.steps), 1)
	if r.err != nil {
		out.check("train_returns", false, r.err.Error())
		out.Failed = out.Attempted
		return
	}
	spe := stepsPerEpoch(r.cfg)
	useful := r.usefulSteps()
	window := (r.end - r.log.at[0]).Seconds()
	steps, tails := r.intervalsMS()
	hist := r.res.History

	out.set("setup_s", r.log.at[0].Seconds())
	out.set("img_per_s", float64(useful*r.cfg.BatchPerRank*r.cfg.World)/window)
	out.set("train.step_ms_p50", median(steps))
	out.samples("train.step_ms_p50", len(steps))
	out.set("allocs_per_step", float64(r.mem1.Mallocs-r.log.mem0.Mallocs)/float64(useful))

	// The tail helper picks p90 for every train workload's 248 to 620
	// gaps (bench_test.go holds it to that, and the name to it).
	tail, _ := tailQuantile(steps)
	out.set("train.step_ms_p90", tail)
	out.set("train.epoch_tail_ms", median(tails))
	out.set("train.recovery_ms", r.recoveryMS())
	out.set("train.final_loss", hist[len(hist)-1].Loss)
	out.set("train.final_miou", r.res.FinalMIOU)
	out.set("train.epochs_to_target", float64(epochsToTarget(r.res, targetMIOU)))
	out.set("train.time_to_miou_s", r.timeToTargetS(targetMIOU))

	badEpochs := 0
	for _, e := range hist {
		if math.IsNaN(e.Loss) || math.IsInf(e.Loss, 0) {
			badEpochs++
		}
	}
	out.Failed = badEpochs * spe
	out.check("loss_finite", badEpochs == 0, fmt.Sprintf("%d of %d epochs", badEpochs, len(hist)))
	out.check("loss_fell", hist[len(hist)-1].Loss < hist[0].Loss,
		fmt.Sprintf("first %.4f final %.4f", hist[0].Loss, hist[len(hist)-1].Loss))
	if w.converges {
		n := epochsToTarget(r.res, targetMIOU)
		out.check("miou_target", n > 0, fmt.Sprintf("mIOU %.2f reached at epoch %d of %d (best %.3f)", targetMIOU, n, len(hist), r.res.BestMIOU))
	}
	out.check("restarts", r.res.Restarts == w.wantRestarts, fmt.Sprintf("%d, want %d", r.res.Restarts, w.wantRestarts))
}
