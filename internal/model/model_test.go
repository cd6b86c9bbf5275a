package model

import (
	"math"
	"sort"
	"testing"
)

func TestDLv3PlusParamCount(t *testing.T) {
	p := DLv3Plus()
	got := p.TotalParams()
	// Literature counts for DLv3+/Xception-65 range ~41–55 M
	// depending on variant; the widely cited figure for the Xception
	// backbone variant is 54.7 M. Our reconstruction must land in
	// that range for the gradient volume to be right.
	if got < 40_000_000 || got > 58_000_000 {
		t.Fatalf("DLv3+ params = %d, want ≈41–55M", got)
	}
	// Gradient volume ≈ 160–225 MB.
	gb := p.GradientBytes()
	if gb < 150<<20 || gb > 230<<20 {
		t.Fatalf("gradient bytes = %d (%.1f MiB)", gb, float64(gb)/(1<<20))
	}
}

func TestResNet50ParamCount(t *testing.T) {
	p := ResNet50()
	got := p.TotalParams()
	// Canonical ResNet-50: 25.6 M.
	if got < 23_000_000 || got > 28_000_000 {
		t.Fatalf("ResNet-50 params = %d, want ≈25.6M", got)
	}
}

func TestResNet50FLOPs(t *testing.T) {
	p := ResNet50()
	// Canonical forward cost ≈ 4.1 GFLOPs (2 ops per MAC) at 224².
	f := p.FwdFLOPs()
	if f < 6e9 || f > 10e9 {
		t.Fatalf("ResNet-50 fwd FLOPs = %.3g, want ≈8.2e9 (2/MAC convention)", f)
	}
}

func TestDLv3PlusMuchHeavierThanResNet(t *testing.T) {
	dl, rn := DLv3Plus(), ResNet50()
	// The paper's motivating observation: per-image compute of DLv3+
	// at 513² is vastly above ResNet-50 at 224² (6.7 vs 300 img/s).
	ratio := dl.FwdFLOPs() / rn.FwdFLOPs()
	if ratio < 8 {
		t.Fatalf("DLv3+/RN50 FLOP ratio = %.1f, want ≫1", ratio)
	}
	// And its gradient volume is larger too.
	if dl.GradientBytes() <= rn.GradientBytes() {
		t.Fatal("DLv3+ gradient volume should exceed ResNet-50's")
	}
}

func TestCommComputeRatioContrast(t *testing.T) {
	// Per *second of compute*, ResNet-50 produces far more gradient
	// traffic than DLv3+ — the reason DLv3+ *should* scale well and
	// why its poor default scaling pointed at Horovod overheads
	// rather than bandwidth.
	dl, rn := DLv3Plus(), ResNet50()
	dlBytesPerSec := float64(dl.GradientBytes()) * dl.MeasuredImgPerSec / float64(dl.BatchPerGPU)
	rnBytesPerSec := float64(rn.GradientBytes()) * rn.MeasuredImgPerSec / float64(rn.BatchPerGPU)
	if dlBytesPerSec >= rnBytesPerSec {
		t.Fatalf("expected RN50 to be comm-denser: DLv3+=%.3g B/s vs RN50=%.3g B/s",
			dlBytesPerSec, rnBytesPerSec)
	}
}

func TestGradientScheduleProperties(t *testing.T) {
	for _, p := range []*Profile{DLv3Plus(), ResNet50()} {
		sched := p.GradientSchedule()
		if len(sched) == 0 {
			t.Fatalf("%s: empty schedule", p.Name)
		}
		// Total bytes must equal the profile's gradient volume.
		total := 0
		for _, g := range sched {
			total += g.Bytes
		}
		if total != p.GradientBytes() {
			t.Fatalf("%s: schedule bytes %d != %d", p.Name, total, p.GradientBytes())
		}
		// Ready fractions are non-decreasing in (0,1].
		if !sort.SliceIsSorted(sched, func(i, j int) bool { return sched[i].ReadyFrac < sched[j].ReadyFrac }) {
			// Equal fractions are fine; check monotone non-decreasing.
			for i := 1; i < len(sched); i++ {
				if sched[i].ReadyFrac < sched[i-1].ReadyFrac {
					t.Fatalf("%s: ready fractions decrease at %d", p.Name, i)
				}
			}
		}
		last := sched[len(sched)-1].ReadyFrac
		if math.Abs(last-1) > 1e-9 {
			t.Fatalf("%s: final ready fraction %g", p.Name, last)
		}
		if sched[0].ReadyFrac <= 0 {
			t.Fatalf("%s: first ready fraction %g", p.Name, sched[0].ReadyFrac)
		}
		// First gradients come from the deepest layer (classifier/fc).
		first := sched[0].Name
		if p.Name == "resnet-50" && first != "fc" {
			t.Fatalf("ResNet-50 first gradient from %q, want fc", first)
		}
		if p.Name != "resnet-50" && first != "decoder.classifier" {
			t.Fatalf("DLv3+ first gradient from %q, want decoder.classifier", first)
		}
	}
}

func TestManyGradientTensors(t *testing.T) {
	// Horovod fusion only matters because real models emit hundreds
	// of small tensors; the profile must reflect that.
	if n := len(DLv3Plus().GradientSchedule()); n < 80 {
		t.Fatalf("DLv3+ has %d gradient tensors, want ≫80", n)
	}
	if n := len(ResNet50().GradientSchedule()); n < 100 {
		t.Fatalf("ResNet-50 has %d gradient tensors, want >100", n)
	}
}

func TestStepFLOPsIsTripleForward(t *testing.T) {
	p := ResNet50()
	if math.Abs(p.StepFLOPs()-3*p.FwdFLOPs()) > 1 {
		t.Fatal("step FLOPs should be 3× forward")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"dlv3plus", "resnet50", "resnet101", "dlv3plus-amp", "deeplab", "resnet-50", "resnet-101"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("vgg"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestResNet101Profile(t *testing.T) {
	p := ResNet101()
	// Canonical ResNet-101: 44.5 M parameters, ~2× ResNet-50 FLOPs.
	if got := p.TotalParams(); got < 41_000_000 || got > 48_000_000 {
		t.Fatalf("ResNet-101 params = %d, want ≈44.5M", got)
	}
	r50 := ResNet50()
	ratio := p.FwdFLOPs() / r50.FwdFLOPs()
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("RN101/RN50 FLOP ratio %.2f, want ≈1.9", ratio)
	}
	if p.MeasuredImgPerSec >= r50.MeasuredImgPerSec {
		t.Fatal("deeper network should be slower")
	}
	if len(p.GradientSchedule()) <= len(r50.GradientSchedule()) {
		t.Fatal("deeper network should have more gradient tensors")
	}
}

func TestMemoryModel(t *testing.T) {
	dl, rn := DLv3Plus(), ResNet50()
	// DLv3+ at 513² is the memory-bound one: its configured batch
	// must fit, but not by much (the paper-era reality of batch 4–8
	// on a 16 GB V100).
	if !dl.FitsInMemory(dl.BatchPerGPU) {
		t.Fatalf("configured DLv3+ batch %d does not fit", dl.BatchPerGPU)
	}
	maxDL := dl.MaxBatchPerGPU()
	if maxDL < 4 || maxDL > 16 {
		t.Fatalf("DLv3+ max batch %d, want the 4–16 regime", maxDL)
	}
	if dl.FitsInMemory(maxDL + 1) {
		t.Fatal("over-limit batch accepted")
	}
	if dl.FitsInMemory(0) {
		t.Fatal("zero batch accepted")
	}
	// ResNet-50 at 224² has far more headroom.
	if rn.MaxBatchPerGPU() <= 2*maxDL {
		t.Fatalf("ResNet-50 max batch %d should dwarf DLv3+'s %d", rn.MaxBatchPerGPU(), maxDL)
	}
	if !rn.FitsInMemory(rn.BatchPerGPU) {
		t.Fatal("ResNet-50 configured batch does not fit")
	}
	// Activation footprint: DLv3+ per image ≫ ResNet-50 per image.
	if dl.ActivationBytes() <= 4*rn.ActivationBytes() {
		t.Fatalf("activation contrast too small: %d vs %d", dl.ActivationBytes(), rn.ActivationBytes())
	}
}

func TestImpliedV100EfficiencyPlausible(t *testing.T) {
	// Calibration sanity: measured throughput and FLOP totals must
	// imply a plausible fraction of V100 peak (15.7 TFLOP/s fp32 —
	// TF 1.x-era DeepLab ran largely in fp32).
	for _, p := range []*Profile{DLv3Plus(), ResNet50()} {
		flopsPerSec := p.StepFLOPs() * p.MeasuredImgPerSec
		eff := flopsPerSec / 15.7e12
		if eff < 0.02 || eff > 0.95 {
			t.Errorf("%s: implied V100 efficiency %.2f implausible", p.Name, eff)
		}
	}
}
