package core

import (
	"fmt"
	"time"

	"segscale/internal/horovod"
	"segscale/internal/model"
	"segscale/internal/mpiprofile"
	"segscale/internal/perfsim"
)

// NamedCandidate labels a configuration for scaling studies
// ("default-spectrum", "tuned-mv2gdr", ...).
type NamedCandidate struct {
	Name      string
	Candidate Candidate
}

// DefaultCandidate is Summit's out-of-the-box configuration.
func DefaultCandidate() NamedCandidate {
	return NamedCandidate{Name: "default-spectrum", Candidate: defaultCandidate()}
}

// NCCLCandidate is Horovod's recommended backend with default knobs —
// the third series of the paper's comparison.
func NCCLCandidate() NamedCandidate {
	return NamedCandidate{Name: "default-nccl", Candidate: Candidate{
		MPI: mpiprofile.NCCL(), Horovod: horovod.Default(),
	}}
}

// TunedCandidate is the configuration the staged tuner converges to
// (also reproducible via Tuner.StagedTune); hard-coded here so the
// experiments don't re-run the search. It is the one spelling of
// "tuned": summitseg.TunedHorovod returns its knobs.
func TunedCandidate() NamedCandidate {
	hvd := horovod.Default()
	hvd.FusionThreshold = 128 << 20
	hvd.CycleTime = 2 * time.Millisecond
	hvd.ResponseCache = true
	mpi := mpiprofile.MV2GDR()
	mpi.CUDABlockSize = 512 << 10
	return NamedCandidate{Name: "tuned-mv2gdr", Candidate: Candidate{MPI: mpi, Horovod: hvd}}
}

// SweepCycle varies HOROVOD_CYCLE_TIME of the tuned candidate at a
// fixed scale (F5), scoring each against one single-GPU run.
func SweepCycle(gpus int, prof *model.Profile, cycles []time.Duration, seed int64) ([]Evaluation, error) {
	t := NewTuner(gpus, prof, seed)
	out := make([]Evaluation, 0, len(cycles))
	for _, ct := range cycles {
		c := TunedCandidate().Candidate
		c.Horovod.CycleTime = ct
		ev, err := t.evaluate(c, fmt.Sprintf("cycle=%s", ct))
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return out, nil
}

// ScalingPoint is one (configuration, scale) measurement.
type ScalingPoint struct {
	Config     string
	GPUs       int
	ImgPerSec  float64
	Efficiency float64
	Result     *perfsim.Result
}

// ScalingStudy runs each named configuration across the GPU scales,
// computing efficiency against that configuration's own single-GPU
// run — exactly how the paper's scaling figure is constructed.
func ScalingStudy(scales []int, prof *model.Profile, configs []NamedCandidate, seed int64) ([]ScalingPoint, error) {
	var out []ScalingPoint
	for _, nc := range configs {
		base, err := perfsim.Run(perfsim.Config{
			GPUs: 1, Model: prof, MPI: nc.Candidate.MPI,
			Horovod: nc.Candidate.Horovod, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		for _, g := range scales {
			res := base
			if g != 1 {
				res, err = perfsim.Run(perfsim.Config{
					GPUs: g, Model: prof, MPI: nc.Candidate.MPI,
					Horovod: nc.Candidate.Horovod, Seed: seed,
				})
				if err != nil {
					return nil, err
				}
			}
			out = append(out, ScalingPoint{
				Config:     nc.Name,
				GPUs:       g,
				ImgPerSec:  res.ImgPerSec,
				Efficiency: res.EfficiencyVs(base),
				Result:     res,
			})
		}
	}
	return out, nil
}
