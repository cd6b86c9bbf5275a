package core

import (
	"testing"
	"time"

	"segscale/internal/model"
)

// smallSpace keeps test runtime reasonable.
func smallSpace() Space {
	s := DefaultSpace()
	s.FusionThresholds = []int{8 << 20, 64 << 20, 128 << 20}
	s.CycleTimes = []time.Duration{time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond}
	s.CUDABlockSizes = []int{128 << 10, 512 << 10}
	return s
}

func TestStagedTuneImprovesOverDefault(t *testing.T) {
	tuner := NewTuner(48, model.DLv3Plus(), 7)
	rep, err := tuner.StagedTune(smallSpace())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best.Efficiency <= rep.Baseline.Efficiency {
		t.Fatalf("tuning did not improve: best %.3f vs baseline %.3f", rep.Best.Efficiency, rep.Baseline.Efficiency)
	}
	if rep.Improvement() < 1.05 {
		t.Fatalf("improvement %.3f too small", rep.Improvement())
	}
	if rep.Speedup() < 1.05 {
		t.Fatalf("speedup %.3f too small", rep.Speedup())
	}
	// The tuner must discover that MVAPICH2-GDR beats Spectrum.
	if rep.Best.Candidate.MPI.Name != "mv2gdr" {
		t.Fatalf("best MPI library %q, expected mv2gdr", rep.Best.Candidate.MPI.Name)
	}
	if rep.Evals != len(rep.Trace) {
		t.Fatalf("evals %d != trace %d", rep.Evals, len(rep.Trace))
	}
	if rep.SingleGPU == nil || rep.SingleGPU.GPUs != 1 {
		t.Fatal("missing single-GPU reference")
	}
	if cost := rep.CostGPUHours(); cost <= 0 {
		t.Fatalf("tuning cost %g", cost)
	}
}

func TestStagedTuneTraceStages(t *testing.T) {
	tuner := NewTuner(24, model.DLv3Plus(), 3)
	rep, err := tuner.StagedTune(smallSpace())
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]int{}
	for _, ev := range rep.Trace {
		stages[ev.Stage]++
	}
	for _, want := range []string{"baseline", "mpi-library", "fusion-threshold", "cycle-time", "allreduce-shape", "cuda-block-size"} {
		if stages[want] == 0 {
			t.Errorf("stage %q missing from trace (%v)", want, stages)
		}
	}
}

func TestStagedTuneCheaperThanGrid(t *testing.T) {
	space := smallSpace()
	staged := NewTuner(24, model.DLv3Plus(), 5)
	srep, err := staged.StagedTune(space)
	if err != nil {
		t.Fatal(err)
	}
	grid := NewTuner(24, model.DLv3Plus(), 5)
	grep, err := grid.GridSearch(space)
	if err != nil {
		t.Fatal(err)
	}
	if srep.Evals >= grep.Evals/3 {
		t.Fatalf("staged used %d evals, grid %d — staged should be ≪", srep.Evals, grep.Evals)
	}
	// The staged optimum must be close to the grid optimum — the
	// paper's justification for not doing a full grid on Summit.
	if srep.Best.Efficiency < grep.Best.Efficiency*0.97 {
		t.Fatalf("staged best %.3f far below grid best %.3f", srep.Best.Efficiency, grep.Best.Efficiency)
	}
}

func TestRandomSearchFindsTheLibraryJump(t *testing.T) {
	space := smallSpace()
	tuner := NewTuner(48, model.DLv3Plus(), 5)
	rep, err := tuner.RandomSearch(space, 12, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best.Efficiency <= rep.Baseline.Efficiency {
		t.Fatal("random search found nothing above baseline")
	}
	// With 12 draws over a 2-library space, finding a GPU-direct
	// library is near-certain; that is the dominant knob.
	if !rep.Best.Candidate.MPI.GPUDirect {
		t.Fatalf("random search best library %q is not GPU-direct", rep.Best.Candidate.MPI.Name)
	}
	if _, err := tuner.RandomSearch(space, 0, 1); err == nil {
		t.Fatal("zero budget accepted")
	}
}

func TestTunedConfigIsScaleStable(t *testing.T) {
	// The paper tunes once and runs everywhere; that only works if
	// the best configuration is stable across scales. The dominant
	// choice (MPI library) must agree at every tested scale.
	space := smallSpace()
	for _, gpus := range []int{12, 48, 132} {
		rep, err := NewTuner(gpus, model.DLv3Plus(), 11).StagedTune(space)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Best.Candidate.MPI.Name != "mv2gdr" {
			t.Errorf("at %d GPUs best library is %q", gpus, rep.Best.Candidate.MPI.Name)
		}
	}
}

func TestEmptySpaceRejected(t *testing.T) {
	tuner := NewTuner(6, model.DLv3Plus(), 1)
	if _, err := tuner.StagedTune(Space{}); err == nil {
		t.Error("empty space accepted")
	}
	if _, err := tuner.GridSearch(Space{}); err == nil {
		t.Error("empty space accepted by grid")
	}
}

func TestSweepCycleAndChunk(t *testing.T) {
	cycles := []time.Duration{time.Millisecond, 10 * time.Millisecond}
	evs, err := SweepCycle(12, model.DLv3Plus(), cycles, 1)
	if err != nil || len(evs) != 2 {
		t.Fatalf("cycle sweep: %v, %d", err, len(evs))
	}
	if evs[0].Result.CyclesPerStep <= evs[1].Result.CyclesPerStep {
		t.Fatal("shorter cycle should produce more cycles per step")
	}
	// The sweep varies the cycle only: every point keeps the tuned chunk.
	for _, ev := range evs {
		if got, want := ev.Candidate.MPI.CUDABlockSize, TunedCandidate().Candidate.MPI.CUDABlockSize; got != want {
			t.Fatalf("cycle sweep changed the chunk: %d, want %d", got, want)
		}
	}
}

func TestScalingStudyCoversAllPoints(t *testing.T) {
	scales := []int{1, 6, 24}
	configs := []NamedCandidate{DefaultCandidate(), TunedCandidate()}
	points, err := ScalingStudy(scales, model.DLv3Plus(), configs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(scales)*len(configs) {
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		if p.GPUs == 1 && (p.Efficiency < 0.999 || p.Efficiency > 1.001) {
			t.Fatalf("single-GPU efficiency %.3f", p.Efficiency)
		}
		if p.Efficiency <= 0 || p.Efficiency > 1.05 {
			t.Fatalf("efficiency %.3f out of range at %s/%d", p.Efficiency, p.Config, p.GPUs)
		}
	}
	// Tuned beats default at 24 GPUs.
	var def, tun float64
	for _, p := range points {
		if p.GPUs == 24 {
			if p.Config == "default-spectrum" {
				def = p.ImgPerSec
			} else {
				tun = p.ImgPerSec
			}
		}
	}
	if tun <= def {
		t.Fatalf("tuned (%.1f) not above default (%.1f) at 24 GPUs", tun, def)
	}
}

func TestThreeWayBackendOrdering(t *testing.T) {
	// The paper's comparison: default Spectrum ≪ NCCL ≈ tuned
	// MVAPICH2-GDR, with the tuned config at least matching NCCL.
	points, err := ScalingStudy([]int{1, 132}, model.DLv3Plus(),
		[]NamedCandidate{DefaultCandidate(), NCCLCandidate(), TunedCandidate()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	at132 := map[string]float64{}
	for _, p := range points {
		if p.GPUs == 132 {
			at132[p.Config] = p.ImgPerSec
		}
	}
	if !(at132["default-nccl"] > at132["default-spectrum"]*1.15) {
		t.Fatalf("NCCL (%v) should clearly beat Spectrum (%v)", at132["default-nccl"], at132["default-spectrum"])
	}
	if at132["tuned-mv2gdr"] < at132["default-nccl"]*0.99 {
		t.Fatalf("tuned MV2-GDR (%v) should at least match NCCL (%v)", at132["tuned-mv2gdr"], at132["default-nccl"])
	}
}

func TestCandidateLabel(t *testing.T) {
	l := TunedCandidate().Candidate.Label()
	for _, want := range []string{"mv2gdr", "fuse=128MiB", "chunk=512KiB", "+cache"} {
		if !contains(l, want) {
			t.Errorf("label %q missing %q", l, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
