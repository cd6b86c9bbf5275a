package train

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"segscale/internal/faultinject"
	"segscale/internal/horovod"
	"segscale/internal/nn"
	"segscale/internal/telemetry"
	"segscale/internal/tensor"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// mpCfg is the shared mixed-precision configuration: two ranks so the
// binary16 allreduce actually runs, otherwise fastCfg-sized.
func mpCfg() Config {
	cfg := fastCfg()
	cfg.World = 2
	cfg.MixedPrecision = true
	return cfg
}

// The mIOU-proxy convergence test the issue requires: under the real
// binary16 wire with dynamic loss scaling, training must still
// converge — loss drops, mIOU improves — and must land close to the
// fp32 run of the same configuration.
func TestMixedPrecisionConverges(t *testing.T) {
	cfg := mpCfg()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.History[0], res.History[len(res.History)-1]
	if math.IsNaN(last.Loss) {
		t.Fatal("mixed-precision training diverged")
	}
	if !(last.Loss < first.Loss*0.8) {
		t.Fatalf("loss did not drop under fp16: %.4f → %.4f", first.Loss, last.Loss)
	}
	if !(res.FinalMIOU > first.MIOU) {
		t.Fatalf("mIOU did not improve under fp16: %.4f → %.4f", first.MIOU, res.FinalMIOU)
	}

	fp32 := cfg
	fp32.MixedPrecision = false
	ref, err := Run(fp32)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.FinalMIOU-ref.FinalMIOU) > 0.15 {
		t.Fatalf("fp16/fp32 accuracy gap too large: %.3f vs %.3f", res.FinalMIOU, ref.FinalMIOU)
	}
}

// renderHistory is the fp16 transcript serialization, matching the
// restart-equivalence golden's format.
func renderHistory(res *Result) string {
	got := ""
	for _, e := range res.History {
		got += fmt.Sprintf("epoch %d loss %.9g miou %.9g acc %.9g lr %.9g\n",
			e.Epoch, e.Loss, e.MIOU, e.PixelAcc, e.LR)
	}
	got += fmt.Sprintf("final miou %.9g acc %.9g fwiou %.9g\n",
		res.FinalMIOU, res.FinalAcc, res.FinalFwIOU)
	return got
}

// The compressed path gets its own committed transcript golden
// (testdata/fp16_transcript.golden, regenerate with
// `go test ./internal/train/ -run TestMixedPrecisionTranscript -update`):
// a same-seed fp16 run is fully deterministic, so any drift in the
// wire format, the loss scaler, or the encode/decode rounding fails
// here — without disturbing the fp32 goldens, which stay bit-exact.
func TestMixedPrecisionTranscriptGolden(t *testing.T) {
	res, err := Run(mpCfg())
	if err != nil {
		t.Fatal(err)
	}
	got := renderHistory(res)

	goldenPath := filepath.Join("testdata", "fp16_transcript.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fp16 run drifted from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// Two same-seed mixed-precision runs must agree exactly — the
// compressed wire is deterministic end to end.
func TestMixedPrecisionRerunIdentical(t *testing.T) {
	a, err := Run(mpCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mpCfg())
	if err != nil {
		t.Fatal(err)
	}
	for e := range a.History {
		if a.History[e] != b.History[e] {
			t.Fatalf("epoch %d differs across reruns:\n%+v\n%+v", e, a.History[e], b.History[e])
		}
	}
	if a.FinalMIOU != b.FinalMIOU || a.FinalFwIOU != b.FinalFwIOU {
		t.Fatal("final metrics differ across reruns")
	}
}

func TestMixedPrecisionConfigValidation(t *testing.T) {
	cfg := fastCfg()
	cfg.LossScale = 512 // without MixedPrecision
	if _, err := Run(cfg); err == nil {
		t.Error("LossScale without MixedPrecision accepted")
	}
	cfg = mpCfg()
	cfg.LossScale = 1000 // not a power of two
	if _, err := Run(cfg); err == nil {
		t.Error("non-power-of-two loss scale accepted")
	}
	cfg = mpCfg()
	cfg.LossScale = -2
	if _, err := Run(cfg); err == nil {
		t.Error("negative loss scale accepted")
	}
}

func TestValidLossScale(t *testing.T) {
	for _, ok := range []float64{0, 1, 2, 1024, 0.5, 1 << 15} {
		if !validLossScale(ok) {
			t.Errorf("validLossScale(%g) = false", ok)
		}
	}
	for _, bad := range []float64{-1, 3, 1000, math.Inf(1), math.NaN()} {
		if validLossScale(bad) {
			t.Errorf("validLossScale(%g) = true", bad)
		}
	}
}

// The scaler state machine: overflow halves (floored at 1) and resets
// the growth counter; a growthInterval-long run of good steps doubles
// the scale up to the cap.
func TestLossScalerStateMachine(t *testing.T) {
	ls := newLossScaler(0)
	if ls.scale != defaultLossScale {
		t.Fatalf("default scale %g", ls.scale)
	}
	ls.backoff()
	if ls.scale != defaultLossScale/2 || ls.good != 0 {
		t.Fatalf("after backoff: scale %g good %d", ls.scale, ls.good)
	}
	for i := 0; i < ls.growthInterval; i++ {
		ls.stepped()
	}
	if ls.scale != defaultLossScale {
		t.Fatalf("after %d good steps: scale %g, want regrow to %d", ls.growthInterval, ls.scale, defaultLossScale)
	}
	// The cap holds.
	ls.scale = ls.maxScale
	for i := 0; i < ls.growthInterval; i++ {
		ls.stepped()
	}
	if ls.scale != ls.maxScale {
		t.Fatalf("scale %g exceeded cap %g", ls.scale, ls.maxScale)
	}
	// The floor holds.
	ls.scale = 1
	ls.backoff()
	if ls.scale != 1 {
		t.Fatalf("scale %g fell below 1", ls.scale)
	}
}

// TestGradOverflowAndScaling exercises the scaler's data path — scale,
// overflow verdict, unscale — through the entry point mpStep uses, on
// a one-rank world where there is no wire to round anything.
func TestGradOverflowAndScaling(t *testing.T) {
	mk := func(vals ...float32) []*nn.Param {
		ps := []*nn.Param{{Name: "p", W: tensor.New(len(vals))}}
		nn.LayOutGrads(ps)
		copy(ps[0].G.Data, vals)
		return ps
	}
	scaled := func(ps []*nn.Param, pre, post float32) (overflow bool) {
		t.Helper()
		err := runWorld(1, func(c *transport.Comm) error {
			rt, err := horovod.NewRuntime(c, topology.ForGPUs(1), horovod.Default())
			if err != nil {
				return err
			}
			overflow, err = rt.AllreduceGradsScaled(ps, pre, post)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return overflow
	}
	if scaled(mk(1, -2, 0.5), 1, 1) {
		t.Error("finite gradients reported as overflow")
	}
	if !scaled(mk(1, float32(math.Inf(1))), 1, 1) {
		t.Error("Inf not detected")
	}
	if !scaled(mk(float32(math.NaN())), 1, 1) {
		t.Error("NaN not detected")
	}
	if !scaled(mk(1, 3e38), 8, 0.125) {
		t.Error("overflow of the scaled gradient not detected")
	}

	ps := mk(1, -0.25, 3)
	if scaled(ps, 8, 1) {
		t.Error("finite scaled gradients reported as overflow")
	}
	want := []float32{8, -2, 24}
	for i, v := range ps[0].G.Data {
		if v != want[i] {
			t.Fatalf("scale: grad[%d] = %g, want %g", i, v, want[i])
		}
	}
	ls := newLossScaler(8)
	ps = mk(1, -0.25, 3)
	scaled(ps, float32(ls.scale), float32(1/ls.scale))
	back := []float32{1, -0.25, 3}
	for i, v := range ps[0].G.Data {
		if v != back[i] {
			t.Fatalf("scale and unscale: grad[%d] = %g, want %g (power-of-two scaling must be exact)", i, v, back[i])
		}
	}
}

// TestMixedPrecisionRecoveryKeepsLossScale crosses fp16 with every
// recovery path after a forced early overflow: an initial scale of
// 2¹⁸–2²⁰ overflows the binary16 wire on the first four or five steps.
// The scale and good-step count are trajectory state, so a recovered
// run that restarted from the initial scale would overflow again and
// skip updates the unfailed run applied.
//
//   - crash → checkpoint restart equals the unfailed run bit for bit,
//     final checkpoint included (the scale rides the SEGC file);
//   - crash one step into an epoch whose first step overflowed →
//     shrink → regrow at that same epoch equals the unfailed elastic
//     run bit for bit: the survivors roll the torn step's backoff back
//     to their commit, and the rejoining slot takes a survivor's scale;
//   - crash after the scale settled → shrink: the shrunken world
//     resumes at the committed scale and never overflows again.
func TestMixedPrecisionRecoveryKeepsLossScale(t *testing.T) {
	run := func(cfg Config) (*Result, []byte) {
		t.Helper()
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.segc")
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ck, err := os.ReadFile(cfg.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		return res, ck
	}
	same := func(name string, a, b *Result, ckA, ckB []byte) {
		t.Helper()
		for e := range a.History {
			if a.History[e] != b.History[e] {
				t.Errorf("%s: epoch %d diverged:\nunfailed:  %+v\nrecovered: %+v", name, e, a.History[e], b.History[e])
			}
		}
		if a.FinalFwIOU != b.FinalFwIOU {
			t.Errorf("%s: final fwIOU %v vs %v", name, a.FinalFwIOU, b.FinalFwIOU)
		}
		if !bytes.Equal(ckA, ckB) {
			t.Errorf("%s: final checkpoints differ (%d vs %d bytes)", name, len(ckA), len(ckB))
		}
	}
	crash := func(rank, step int) *faultinject.Plan {
		return &faultinject.Plan{Crashes: []faultinject.Crash{{Rank: rank, Step: step}}}
	}

	// Fixed world: two ranks, three steps an epoch, overflow on steps
	// 0–4; rank 1 dies one step into epoch 2.
	fixed := mpCfg()
	fixed.Epochs = 4
	fixed.LossScale = 1 << 20
	plain, plainCk := run(fixed)
	restart := fixed
	restart.Chaos = crash(1, 7)
	restart.MaxRestarts = 1
	rr, rrCk := run(restart)
	if rr.Restarts != 1 {
		t.Fatalf("restart run: %d restarts, want 1", rr.Restarts)
	}
	same("restart", plain, rr, plainCk, rrCk)

	// Elastic: three ranks, two steps an epoch, overflow on steps 0–3;
	// the regrow run's rank 2 dies at step 3, after step 2 halved the
	// live scale.
	elastic := mpCfg()
	elastic.World = 3
	elastic.Epochs = 4
	elastic.LossScale = 1 << 18
	elastic.Elastic = true
	elastic.MaxRestarts = 1
	eplain, eplainCk := run(elastic)
	regrow := elastic
	regrow.Chaos = crash(2, 3)
	regrow.RejoinEpoch = 1
	rg, rgCk := run(regrow)
	if rg.Shrinks != 1 || rg.Regrows != 1 {
		t.Fatalf("regrow run: shrinks=%d regrows=%d, want 1/1", rg.Shrinks, rg.Regrows)
	}
	same("shrink→regrow", eplain, rg, eplainCk, rgCk)

	shrink := elastic
	shrink.Chaos = crash(2, 5)
	shrink.Telemetry = telemetry.NewCollector()
	sr, _ := run(shrink)
	if sr.Shrinks != 1 {
		t.Fatalf("shrink run: %d shrinks, want 1", sr.Shrinks)
	}
	overflows := map[bool]float64{} // by "recovered incarnation"
	for _, m := range shrink.Telemetry.Gather() {
		if m.Name == "amp_overflow_steps_total" {
			for lane, v := range m.PerLane {
				overflows[strings.Contains(lane, ".r")] += v
			}
		}
	}
	if overflows[false] == 0 {
		t.Fatal("forced loss scale never overflowed: the test no longer exercises the scaler")
	}
	if overflows[true] != 0 {
		t.Errorf("shrunken world overflowed %g times: it resumed from the initial loss scale", overflows[true])
	}
}
