package train

import (
	"math"

	"segscale/internal/nn"
)

// Dynamic loss scaling for mixed-precision training. The replica's
// master weights, activations, and optimiser state all stay float32 —
// only the allreduce wire is binary16 (Config.MixedPrecision forces
// Horovod's FP16Compression on). What the scaler protects is that
// wire: late-training gradients sit well below binary16's smallest
// normal (2⁻¹⁴), so encoding them unscaled flushes the signal to
// zero. Multiplying every gradient by a power-of-two scale before the
// allreduce and dividing it back out afterwards keeps the payload in
// binary16's dynamic range without changing any mantissa bit — a
// power-of-two scale is exact in both formats. Both multiplies ride
// the allreduce's pack and unpack passes
// (horovod.AllreduceGradsScaled); no separate pass over the gradients
// exists for the scaler.
//
// The schedule is the standard one: on overflow (any Inf/NaN in the
// reduced gradients — identical on every rank, since all ranks decode
// the same reduced bytes) the step is skipped and the scale halves;
// after growthInterval consecutive good steps the scale doubles,
// probing back toward the largest safe value.

// phaseAMP labels loss-scale transition marks in the flight recorder.
const phaseAMP = "AMP"

// defaultLossScale is the initial scale when Config.LossScale is zero:
// large enough to lift 1e-7-magnitude gradients into binary16 range,
// small enough that unit-scale gradients stay far from overflow.
const defaultLossScale = 1 << 10

// lossScaler holds one replica's dynamic loss-scaling state. Every
// rank steps its scaler on the same (shared) verdict each step, so the
// states never diverge across ranks.
type lossScaler struct {
	scale          float64
	good           int // consecutive overflow-free steps at this scale
	growthInterval int
	maxScale       float64
}

func newLossScaler(initial float64) *lossScaler {
	if initial == 0 {
		initial = defaultLossScale
	}
	return &lossScaler{scale: initial, growthInterval: 50, maxScale: 1 << 15}
}

// validLossScale reports whether s is usable as an initial scale:
// zero (use the default) or a positive power of two — anything else
// would perturb gradient mantissas and break the fp32/fp16 exactness
// argument above.
func validLossScale(s float64) bool {
	if s == 0 {
		return true
	}
	if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		return false
	}
	frac, _ := math.Frexp(s)
	return frac == 0.5
}

// backoff records an overflow: halve the scale (floor 1) and restart
// the growth counter. Reports whether the scale actually moved, so
// the caller can mark the transition in the flight recorder.
func (ls *lossScaler) backoff() bool {
	ls.good = 0
	if ls.scale <= 1 {
		return false
	}
	ls.scale /= 2
	return true
}

// stepped records an overflow-free step, doubling the scale after
// growthInterval consecutive good steps (capped at maxScale). Reports
// whether the scale regrew on this step.
func (ls *lossScaler) stepped() bool {
	ls.good++
	if ls.good >= ls.growthInterval && ls.scale < ls.maxScale {
		ls.scale *= 2
		ls.good = 0
		return true
	}
	return false
}

// mpStep runs the communicate-and-update half of a training step under
// mixed precision. The scaler rides the allreduce's own two passes:
// gradients are multiplied by the scale as they are encoded onto the
// binary16 wire and by 1/scale as the average is decoded back, and the
// overflow verdict (any Inf/NaN among the reduced gradients) comes
// from the same unpack pass. Then either skip (overflow: drop the
// poisoned gradients, halve the scale) or apply the optimiser update.
func (t *rankStep) mpStep() error {
	overflow, err := t.rt.AllreduceGradsScaled(t.params, float32(t.scaler.scale), float32(1/t.scaler.scale))
	if err != nil {
		return err
	}
	if overflow {
		// Every rank sees the same reduced bytes, so every rank skips
		// together — no extra agreement round needed. The backoff is
		// recorded as an instantaneous flight-recorder event so a dump
		// shows *when* the scale moved, not just the gauge's end state.
		if t.scaler.backoff() {
			t.probe.Mark(phaseAMP, "loss_scale_backoff")
		}
		t.probe.Counter("amp_overflow_steps_total").Inc()
		nn.ZeroGrads(t.params)
	} else {
		if t.scaler.stepped() {
			t.probe.Mark(phaseAMP, "loss_scale_regrow")
		}
		if t.cfg.GradClip > 0 {
			nn.GlobalGradClip(t.params, t.cfg.GradClip)
		}
		// Health sees only applied updates: overflow steps carry
		// deliberately-poisoned scaled gradients that are dropped above
		// and must not trip the non-finite sentinel.
		t.health.CollectUpdate(t.params, t.sched.LR(t.gstep))
		t.opt.SetLR(t.sched.LR(t.gstep))
		t.opt.Step(t.params)
		nn.ZeroGrads(t.params)
	}
	t.probe.Gauge("amp_loss_scale_ratio").Set(t.scaler.scale)
	return nil
}

// scalerFor returns a fresh loss scaler for a new replica when the run
// is mixed-precision, nil otherwise. The scale and good-step count are
// trajectory state like the optimiser's velocity: the replica's
// in-memory commit and the checkpoint both carry them, so a recovered
// run resumes at the scale the unfailed run had, not the initial one.
func scalerFor(cfg Config) *lossScaler {
	if !cfg.MixedPrecision {
		return nil
	}
	return newLossScaler(cfg.LossScale)
}
