package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"segscale/pkg/summitseg"
)

const (
	// tuneGPUs is the paper's full scale; bigGPUs the 1000+-rank scale
	// the hierarchical allreduce was added for.
	tuneGPUs = 132
	bigGPUs  = 1056
	// The repro-check band for tuned 132-GPU scaling efficiency.
	effBandLo, effBandHi = 0.88, 0.97
)

// sweeper holds the profiles one sweep runs over: everything a user of
// summit-sim / hvd-tune / osu-micro loads before the first simulation.
type sweeper struct {
	dlv3, resnet  *summitseg.ModelProfile
	spectrum, mv2 *summitseg.MPIProfile
	hier2         summitseg.Algorithm
}

func newSweeper() (*sweeper, error) {
	s := &sweeper{}
	var err error
	if s.dlv3, err = summitseg.ModelByName("dlv3plus"); err != nil {
		return nil, err
	}
	if s.resnet, err = summitseg.ModelByName("resnet50"); err != nil {
		return nil, err
	}
	if s.spectrum, err = summitseg.MPIByName("spectrum"); err != nil {
		return nil, err
	}
	if s.mv2, err = summitseg.MPIByName("mv2gdr"); err != nil {
		return nil, err
	}
	if s.hier2, err = summitseg.AlgorithmByName("hier-2level"); err != nil {
		return nil, err
	}
	return s, nil
}

// sweepStats is what one sweep leaves behind.
type sweepStats struct {
	// configs counts simulated configurations (operations); failed the
	// ones that erred or produced a non-finite throughput.
	configs, failed int
	// simImages is the number of training images the simulator stepped
	// through (post-warmup steps × GPUs × batch), the simulator's unit
	// of work per host second.
	simImages float64
	// effTuned132 / effDefault132 are simulated scaling efficiencies of
	// DLv3+ at 132 GPUs; imgPerSTuned132 the simulated throughput.
	effTuned132, effDefault132, imgPerSTuned132 float64
	tuneEvals                                   int
}

func (st *sweepStats) point(r *summitseg.SimResult) {
	st.configs++
	if r == nil || math.IsNaN(r.ImgPerSec) || math.IsInf(r.ImgPerSec, 0) || r.ImgPerSec <= 0 {
		st.failed++
		return
	}
	st.simImages += float64(len(r.StepTimesSec) * r.GPUs * r.BatchPer)
}

// big returns the 1056-GPU configuration for one (algorithm, wire
// precision) cell: the tuned knobs on MVAPICH2-GDR.
func (s *sweeper) big(seed int64, hier, half bool) summitseg.SimOptions {
	hvd := summitseg.TunedHorovod()
	if hier {
		hvd.Algorithm = s.hier2
	}
	hvd.FP16Compression = half
	return summitseg.SimOptions{GPUs: bigGPUs, Model: s.dlv3, MPI: s.mv2, Horovod: hvd, Seed: seed}
}

// sweep runs one full sweep at a seed. tr, when non-nil, records a
// span around every public call (the traced run).
func (s *sweeper) sweep(seed int64, tr *spanLog) (sweepStats, error) {
	var st sweepStats
	root := tr.begin("sim.sweep", -1)
	defer tr.end(root)

	sp := tr.begin("core.scaling", root)
	pts, err := summitseg.Scaling(summitseg.PaperScales(), s.dlv3, seed)
	tr.end(sp)
	if err != nil {
		return st, fmt.Errorf("scaling dlv3plus: %w", err)
	}
	for _, p := range pts {
		st.point(p.Result)
		if p.GPUs == tuneGPUs {
			if p.Config == "tuned-mv2gdr" {
				st.effTuned132, st.imgPerSTuned132 = p.Efficiency, p.ImgPerSec
			} else {
				st.effDefault132 = p.Efficiency
			}
		}
	}
	sp = tr.begin("core.scaling_resnet50", root)
	pts, err = summitseg.Scaling(summitseg.PaperScales(), s.resnet, seed)
	tr.end(sp)
	if err != nil {
		return st, fmt.Errorf("scaling resnet50: %w", err)
	}
	for _, p := range pts {
		st.point(p.Result)
	}

	sp = tr.begin("core.tune", root)
	rep, err := summitseg.Tune(tuneGPUs, s.dlv3, seed)
	tr.end(sp)
	if err != nil {
		return st, fmt.Errorf("tune: %w", err)
	}
	st.tuneEvals = rep.Evals
	for _, e := range rep.Trace {
		st.point(e.Result)
	}

	for _, hier := range []bool{false, true} {
		for _, half := range []bool{false, true} {
			name := "perfsim.run_1056"
			if hier {
				name = "perfsim.run_1056_hier"
			}
			sp = tr.begin(name, root)
			r, err := summitseg.Simulate(s.big(seed, hier, half))
			tr.end(sp)
			if err != nil {
				return st, fmt.Errorf("simulate %d gpus: %w", bigGPUs, err)
			}
			st.point(r)
		}
	}

	for _, mpi := range []*summitseg.MPIProfile{s.spectrum, s.mv2} {
		sp = tr.begin("netmodel.latency", root)
		rows, err := summitseg.AllreduceLatency(mpi, tuneGPUs/6, summitseg.OSUMessageSizes())
		tr.end(sp)
		if err != nil {
			return st, fmt.Errorf("allreduce latency: %w", err)
		}
		for _, row := range rows {
			st.configs++
			if math.IsNaN(row.LatencyUS) || math.IsInf(row.LatencyUS, 0) || row.LatencyUS <= 0 {
				st.failed++
			}
		}
	}
	return st, nil
}

// sweepRun is the timing of simSweeps sweeps at seeds seed, seed+1, ….
type sweepRun struct {
	s             *sweeper
	setup, window time.Duration
	sweepMS       []float64
	total         sweepStats
	base          sweepStats // the sweep at the base seed
	mallocs       uint64
}

func runSweeps(seed int64, n int, spawn time.Time) (*sweepRun, error) {
	s, err := newSweeper()
	if err != nil {
		return nil, err
	}
	run := &sweepRun{s: s, setup: time.Since(spawn), sweepMS: make([]float64, 0, n)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		st, err := s.sweep(seed+int64(i), nil)
		if err != nil {
			return nil, err
		}
		run.sweepMS = append(run.sweepMS, float64(time.Since(t))/float64(time.Millisecond))
		if i == 0 {
			run.base = st
		}
		run.total.configs += st.configs
		run.total.failed += st.failed
		run.total.simImages += st.simImages
	}
	run.window = time.Since(start)
	runtime.ReadMemStats(&m1)
	run.mallocs = m1.Mallocs - m0.Mallocs
	return run, nil
}

// checkSim runs the simulator's output checks into res.
func (run *sweepRun) checkSim(seed int64, res *result) error {
	res.Attempted, res.Failed = run.total.configs, run.total.failed
	res.check("points_finite", run.total.failed == 0, fmt.Sprintf("%d of %d configurations", run.total.failed, run.total.configs))
	eff := run.base.effTuned132
	res.check("tuned_eff_band", eff >= effBandLo && eff <= effBandHi,
		fmt.Sprintf("132-GPU tuned efficiency %.4f, band %.2f-%.2f", eff, effBandLo, effBandHi))

	opts := run.s.big(seed, true, false)
	opts.GPUs = tuneGPUs
	a, err := summitseg.Simulate(opts)
	if err != nil {
		return err
	}
	b, err := summitseg.Simulate(opts)
	if err != nil {
		return err
	}
	res.check("same_seed_identical", reflect.DeepEqual(a, b), "two Simulate calls at one seed")
	return nil
}

// childSim is the untraced measured run of sim_sweep: sweeps sweeps at
// seeds seed, seed+1, …. Its step is one sweep; README.md says what each end-to-end metric means here.
func childSim(o options, sweeps int, spawn time.Time, res *result) error {
	run, err := runSweeps(o.seed, sweeps, spawn)
	if err != nil {
		return err
	}
	res.set("setup_s", run.setup.Seconds())
	res.set("sim.sweep_ms_p50", median(run.sweepMS))
	res.samples("sim.sweep_ms_p50", len(run.sweepMS))
	res.set("img_per_s", run.total.simImages/run.window.Seconds())
	res.set("allocs_per_step", float64(run.mallocs)/float64(len(run.sweepMS)))
	if err := run.checkSim(o.seed, res); err != nil {
		return err
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", rss)
	return nil
}
