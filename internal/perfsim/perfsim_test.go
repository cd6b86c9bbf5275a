package perfsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"segscale/internal/horovod"
	"segscale/internal/iosim"
	"segscale/internal/model"
	"segscale/internal/mpiprofile"
	"segscale/internal/netmodel"
	"segscale/internal/timeline"
	"segscale/internal/topology"
)

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func defaultSpectrum(gpus int) Config {
	return Config{GPUs: gpus, Model: model.DLv3Plus(), MPI: mpiprofile.Spectrum(), Horovod: horovod.Default(), Seed: 1}
}

func tunedMV2(gpus int) Config {
	hvd := horovod.Default()
	hvd.FusionThreshold = 128 << 20
	hvd.CycleTime = 2 * time.Millisecond
	hvd.ResponseCache = true
	return Config{GPUs: gpus, Model: model.DLv3Plus(), MPI: mpiprofile.MV2GDR(), Horovod: hvd, Seed: 1}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{GPUs: 0, Model: model.DLv3Plus(), MPI: mpiprofile.MV2GDR(), Horovod: horovod.Default()}); err == nil {
		t.Error("zero GPUs accepted")
	}
	if _, err := Run(Config{GPUs: 2, MPI: mpiprofile.MV2GDR(), Horovod: horovod.Default()}); err == nil {
		t.Error("missing model accepted")
	}
	bad := horovod.Default()
	bad.CycleTime = 0
	if _, err := Run(Config{GPUs: 2, Model: model.DLv3Plus(), MPI: mpiprofile.MV2GDR(), Horovod: bad}); err == nil {
		t.Error("invalid horovod config accepted")
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := run(t, tunedMV2(24))
	b := run(t, tunedMV2(24))
	if a.ImgPerSec != b.ImgPerSec || a.AvgStepSec != b.AvgStepSec {
		t.Fatal("same seed produced different results")
	}
	c := tunedMV2(24)
	c.Seed = 99
	d := run(t, c)
	if d.ImgPerSec == a.ImgPerSec {
		t.Fatal("different seed produced identical throughput (suspicious)")
	}
}

func TestThroughputIncreasesWithGPUs(t *testing.T) {
	for _, mk := range []func(int) Config{defaultSpectrum, tunedMV2} {
		prev := 0.0
		for _, g := range topology.PaperScales() {
			r := run(t, mk(g))
			if r.ImgPerSec <= prev {
				t.Fatalf("throughput not increasing at %d GPUs: %.1f <= %.1f", g, r.ImgPerSec, prev)
			}
			prev = r.ImgPerSec
		}
	}
}

func TestEfficiencyDecreasesWithScale(t *testing.T) {
	base := run(t, defaultSpectrum(1))
	prev := 1.1
	for _, g := range []int{6, 24, 132} {
		eff := run(t, defaultSpectrum(g)).EfficiencyVs(base)
		if eff >= prev {
			t.Fatalf("efficiency not decreasing at %d GPUs: %.3f >= %.3f", g, eff, prev)
		}
		prev = eff
	}
}

func TestTunedBeatsDefaultEverywhere(t *testing.T) {
	for _, g := range []int{6, 24, 48, 96, 132} {
		tuned := run(t, tunedMV2(g))
		def := run(t, defaultSpectrum(g))
		if tuned.ImgPerSec <= def.ImgPerSec {
			t.Errorf("%d GPUs: tuned %.1f not above default %.1f", g, tuned.ImgPerSec, def.ImgPerSec)
		}
	}
}

func TestGapGrowsWithScale(t *testing.T) {
	gapAt := func(g int) float64 {
		return run(t, tunedMV2(g)).ImgPerSec / run(t, defaultSpectrum(g)).ImgPerSec
	}
	small, large := gapAt(6), gapAt(132)
	if large <= small {
		t.Fatalf("tuned/default gap should grow with scale: %.3f at 6 vs %.3f at 132", small, large)
	}
}

func TestOverlapAblation(t *testing.T) {
	// Forcing the GDR library to serialise must hurt it; letting the
	// staged library overlap must help it.
	mv2 := tunedMV2(96)
	mv2Serial := mv2
	mv2Serial.Overlap = OverlapNone
	if a, b := run(t, mv2).ImgPerSec, run(t, mv2Serial).ImgPerSec; b >= a {
		t.Errorf("serialised MV2 (%.1f) should be slower than overlapped (%.1f)", b, a)
	}
	spec := defaultSpectrum(96)
	specOverlap := spec
	specOverlap.Overlap = OverlapFull
	if a, b := run(t, spec).ImgPerSec, run(t, specOverlap).ImgPerSec; b <= a {
		t.Errorf("overlapped Spectrum (%.1f) should beat serialised (%.1f)", b, a)
	}
}

func TestCyclicPlacementHurts(t *testing.T) {
	// Round-robin rank placement makes every ring edge cross the NIC
	// (6 concurrent flows per node instead of 1): throughput must
	// drop relative to packed placement.
	packed := tunedMV2(132)
	cyclic := packed
	cyclic.Placement = PlacementCyclic
	// Force a ring so the placement effect hits the main collective.
	packed.Horovod.Algorithm = parseAlg(t, "ring")
	cyclic.Horovod.Algorithm = packed.Horovod.Algorithm
	a, b := run(t, packed), run(t, cyclic)
	if b.AllreduceSec <= a.AllreduceSec {
		t.Fatalf("cyclic placement did not slow the ring: %.4g vs %.4g", b.AllreduceSec, a.AllreduceSec)
	}
}

func TestCyclicPlacementRequiresFullNodes(t *testing.T) {
	cfg := tunedMV2(7) // 7 GPUs → partial node
	cfg.Placement = PlacementCyclic
	if _, err := Run(cfg); err == nil {
		t.Fatal("cyclic placement on partial nodes accepted")
	}
}

func parseAlg(t *testing.T, name string) netmodel.Algorithm {
	t.Helper()
	alg, err := netmodel.AlgorithmByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return alg
}

func TestFP16CompressionReducesAllreduceTime(t *testing.T) {
	plain := defaultSpectrum(96)
	compressed := plain
	compressed.Horovod.FP16Compression = true
	a, b := run(t, plain), run(t, compressed)
	if b.AllreduceSec >= a.AllreduceSec {
		t.Fatalf("compression did not shrink allreduce time: %.4g vs %.4g", b.AllreduceSec, a.AllreduceSec)
	}
	if b.PackSec <= a.PackSec {
		t.Fatalf("compression should add cast-kernel time: %.4g vs %.4g", b.PackSec, a.PackSec)
	}
	// Net effect on the serialised path should be positive.
	if b.ImgPerSec <= a.ImgPerSec {
		t.Fatalf("compression did not help the bandwidth-bound path: %.1f vs %.1f", b.ImgPerSec, a.ImgPerSec)
	}
}

func TestBatchOverrideAndMemoryCap(t *testing.T) {
	cfg := tunedMV2(24)
	cfg.BatchPerGPU = 8 // DLv3+'s memory ceiling
	r8 := run(t, cfg)
	if r8.BatchPer != 8 {
		t.Fatalf("batch override ignored: %d", r8.BatchPer)
	}
	base := run(t, tunedMV2(24)) // batch 4
	// Larger batch amortises per-step overhead → higher throughput.
	if r8.ImgPerSec <= base.ImgPerSec {
		t.Fatalf("batch 8 (%.1f) not above batch 4 (%.1f)", r8.ImgPerSec, base.ImgPerSec)
	}
	// Over the V100 memory ceiling → rejected like an OOM.
	oom := tunedMV2(24)
	oom.BatchPerGPU = 64
	if _, err := Run(oom); err == nil {
		t.Fatal("OOM batch accepted")
	}
}

func TestGradientAccumulationReducesCommTime(t *testing.T) {
	plain := defaultSpectrum(96)
	accum := plain
	accum.Horovod.BackwardPassesPerStep = 4
	a, b := run(t, plain), run(t, accum)
	// Per-step average allreduce time drops ~4× (only every 4th step
	// communicates) and throughput rises on the serialised path.
	if b.AllreduceSec >= a.AllreduceSec/2 {
		t.Fatalf("accumulation barely reduced comm: %.4g vs %.4g", b.AllreduceSec, a.AllreduceSec)
	}
	if b.ImgPerSec <= a.ImgPerSec {
		t.Fatalf("accumulation did not raise throughput: %.1f vs %.1f", b.ImgPerSec, a.ImgPerSec)
	}
}

func TestIOPipelineStalls(t *testing.T) {
	io := iosim.Default()
	withPrefetch := tunedMV2(24)
	withPrefetch.IO = &io
	r := run(t, withPrefetch)
	if r.DataStallSec != 0 {
		t.Fatalf("healthy prefetch pipeline stalled %.4g", r.DataStallSec)
	}

	sync := iosim.Default()
	sync.PrefetchDepth = 0
	noPrefetch := tunedMV2(24)
	noPrefetch.IO = &sync
	r2 := run(t, noPrefetch)
	if r2.DataStallSec <= 0 {
		t.Fatal("synchronous pipeline showed no stall")
	}
	if r2.ImgPerSec >= r.ImgPerSec {
		t.Fatalf("stalled run not slower: %.1f vs %.1f", r2.ImgPerSec, r.ImgPerSec)
	}

	bad := iosim.Default()
	bad.Workers = 0
	broken := tunedMV2(6)
	broken.IO = &bad
	if _, err := Run(broken); err == nil {
		t.Fatal("invalid IO config accepted")
	}
}

func TestResponseCacheReducesNegotiation(t *testing.T) {
	with := tunedMV2(96)
	without := with
	without.Horovod.ResponseCache = false
	a, b := run(t, with), run(t, without)
	if a.NegotiateSec >= b.NegotiateSec {
		t.Errorf("cache did not reduce negotiation: %.4g vs %.4g", a.NegotiateSec, b.NegotiateSec)
	}
}

func TestExposedCommSmallWhenOverlapped(t *testing.T) {
	r := run(t, tunedMV2(132))
	if r.ExposedSec > 0.1*r.AvgStepSec {
		t.Fatalf("tuned MV2 exposes %.1f%% of the step", 100*r.ExposedSec/r.AvgStepSec)
	}
	d := run(t, defaultSpectrum(132))
	if d.ExposedSec < 0.1*d.AvgStepSec {
		t.Fatalf("default Spectrum exposes only %.1f%%", 100*d.ExposedSec/d.AvgStepSec)
	}
}

func TestFusionThresholdChangesBufferCount(t *testing.T) {
	big := tunedMV2(24)
	big.Horovod.FusionThreshold = 256 << 20
	small := tunedMV2(24)
	small.Horovod.FusionThreshold = 1 << 20
	rb, rs := run(t, big), run(t, small)
	if rs.BuffersPerStep <= rb.BuffersPerStep {
		t.Fatalf("smaller threshold should mean more buffers: %.1f vs %.1f", rs.BuffersPerStep, rb.BuffersPerStep)
	}
}

func TestCycleTimeChangesCycleCount(t *testing.T) {
	fast := tunedMV2(24)
	fast.Horovod.CycleTime = time.Millisecond
	slow := tunedMV2(24)
	slow.Horovod.CycleTime = 10 * time.Millisecond
	rf, rs := run(t, fast), run(t, slow)
	if rf.CyclesPerStep <= rs.CyclesPerStep {
		t.Fatalf("shorter cycle should mean more cycles: %.1f vs %.1f", rf.CyclesPerStep, rs.CyclesPerStep)
	}
}

func TestDLv3ScalesBetterThanResNet50(t *testing.T) {
	// T3: the compute-heavy DLv3+ has the friendlier comm/compute
	// ratio, so with a capable library it scales at least as well.
	cfgDL := Config{GPUs: 132, Model: model.DLv3Plus(), MPI: mpiprofile.MV2GDR(), Horovod: horovod.Default(), Seed: 3}
	cfgRN := cfgDL
	cfgRN.Model = model.ResNet50()
	baseDL := run(t, Config{GPUs: 1, Model: model.DLv3Plus(), MPI: mpiprofile.MV2GDR(), Horovod: horovod.Default(), Seed: 3})
	baseRN := run(t, Config{GPUs: 1, Model: model.ResNet50(), MPI: mpiprofile.MV2GDR(), Horovod: horovod.Default(), Seed: 3})
	effDL := run(t, cfgDL).EfficiencyVs(baseDL)
	effRN := run(t, cfgRN).EfficiencyVs(baseRN)
	if effDL < effRN-0.005 {
		t.Fatalf("DLv3+ efficiency %.3f below ResNet-50's %.3f", effDL, effRN)
	}
}

func TestTimelineRecordsHorovodPhases(t *testing.T) {
	rec := timeline.New()
	cfg := defaultSpectrum(24)
	cfg.Timeline = rec
	run(t, cfg)
	b := rec.Breakdown()
	for _, phase := range []string{timeline.PhaseForward, timeline.PhaseBackward, timeline.PhaseNegotiate, timeline.PhaseAllreduce, timeline.PhaseMemcpy} {
		if b[phase] <= 0 {
			t.Errorf("phase %s missing from timeline: %v", phase, b)
		}
	}
}

func TestSlowRankFaultInjection(t *testing.T) {
	// One persistently slow GPU paces the entire 96-GPU job — the
	// defining pathology of synchronous data parallelism.
	healthy := run(t, tunedMV2(96))
	hurt := tunedMV2(96)
	hurt.SlowRanks = 1
	hurt.SlowFactor = 1.25
	slow := run(t, hurt)
	drop := slow.ImgPerSec / healthy.ImgPerSec
	if drop > 0.92 {
		t.Fatalf("one slow rank only dropped throughput to %.2f of healthy", drop)
	}
	// More slow ranks barely matter beyond the first (max already
	// dominated).
	hurt.SlowRanks = 10
	many := run(t, hurt)
	if many.ImgPerSec < slow.ImgPerSec*0.95 {
		t.Fatalf("extra slow ranks changed pacing too much: %.1f vs %.1f", many.ImgPerSec, slow.ImgPerSec)
	}
	// Validation.
	bad := tunedMV2(6)
	bad.SlowRanks = 1
	if _, err := Run(bad); err == nil {
		t.Fatal("slow ranks without factor accepted")
	}
	bad.SlowRanks = 99
	bad.SlowFactor = 1.5
	if _, err := Run(bad); err == nil {
		t.Fatal("more slow ranks than GPUs accepted")
	}
}

// Property: simulator invariants hold across random configurations —
// throughput never exceeds ideal, all time components are
// non-negative, and the books balance.
func TestPropertySimulatorInvariants(t *testing.T) {
	profiles := []func() *mpiprofile.Profile{mpiprofile.Spectrum, mpiprofile.MV2GDR}
	f := func(gpuSel, profSel, fuseSel, cycleSel uint8, hier, cache, comp bool, seed int64) bool {
		gpus := []int{1, 2, 6, 13, 24, 96}[int(gpuSel)%6]
		hvd := horovod.Default()
		hvd.FusionThreshold = []int{0, 1 << 20, 64 << 20}[int(fuseSel)%3]
		hvd.CycleTime = []time.Duration{time.Millisecond, 5 * time.Millisecond, 25 * time.Millisecond}[int(cycleSel)%3]
		hvd.Hierarchical = hier
		hvd.ResponseCache = cache
		hvd.FP16Compression = comp
		cfg := Config{
			GPUs: gpus, Model: model.DLv3Plus(), MPI: profiles[int(profSel)%2](),
			Horovod: hvd, Seed: seed, Steps: 6, WarmupSteps: 1,
		}
		r, err := Run(cfg)
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}
		// Calibration matches the *expected* single-GPU rate; short
		// runs with lucky jitter draws can exceed it by up to the
		// mean-jitter margin (≈3 %), never more.
		ideal := cfg.Model.MeasuredImgPerSec * float64(gpus)
		if r.ImgPerSec <= 0 || r.ImgPerSec > ideal*1.04 {
			t.Logf("throughput %.1f outside (0, %.1f]", r.ImgPerSec, ideal*1.04)
			return false
		}
		for _, v := range []float64{r.ComputeSec, r.NegotiateSec, r.PackSec, r.AllreduceSec, r.ExposedSec, r.DataStallSec} {
			if v < 0 || math.IsNaN(v) {
				t.Logf("negative/NaN component in %+v", r)
				return false
			}
		}
		// The average step can never be shorter than pure compute.
		if r.AvgStepSec < r.ComputeSec*0.99 {
			t.Logf("step %.4f below compute %.4f", r.AvgStepSec, r.ComputeSec)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStepTimesPositiveAndStable(t *testing.T) {
	r := run(t, tunedMV2(48))
	if len(r.StepTimesSec) != DefaultSteps-2 {
		t.Fatalf("%d post-warmup steps", len(r.StepTimesSec))
	}
	for _, s := range r.StepTimesSec {
		if s <= 0 || math.IsNaN(s) {
			t.Fatalf("bad step time %g", s)
		}
		if math.Abs(s-r.AvgStepSec) > 0.3*r.AvgStepSec {
			t.Fatalf("step time %g far from mean %g", s, r.AvgStepSec)
		}
	}
}
