package nn

import (
	"fmt"
	"math"
)

// SGD is stochastic gradient descent with momentum and decoupled
// weight decay — the optimiser DeepLab-v3+ trains with.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	velocity map[*Param][]float32
}

// NewSGD constructs the optimiser with DeepLab's defaults (momentum
// 0.9, weight decay 4e-5) at the given learning rate.
func NewSGD(lr float64) *SGD {
	return &SGD{LR: lr, Momentum: 0.9, WeightDecay: 4e-5, velocity: map[*Param][]float32{}}
}

// Step applies one update to every parameter from its accumulated
// gradient. Gradients are not cleared; call ZeroGrads before the next
// backward.
func (o *SGD) Step(params []*Param) {
	lr := float32(o.LR)
	mom := float32(o.Momentum)
	wd := float32(o.WeightDecay)
	for _, p := range params {
		vel, ok := o.velocity[p]
		if !ok {
			vel = make([]float32, p.W.Len())
			o.velocity[p] = vel
		}
		g := p.G.Data
		w := p.W.Data
		for i := range w {
			grad := g[i]
			if p.Decay {
				grad += wd * w[i]
			}
			vel[i] = mom*vel[i] + grad
			w[i] -= lr * vel[i]
		}
	}
}

// ExportState implements Optimizer.
func (o *SGD) ExportState(params []*Param) [][]float32 {
	return exportVelocity(o.velocity, params)
}

// ImportState implements Optimizer.
func (o *SGD) ImportState(params []*Param, state [][]float32) error {
	return importVelocity(o.velocity, params, state)
}

// exportVelocity snapshots a velocity map in params order. Entries for
// parameters the optimiser has not touched yet come out as zeros —
// exactly the state a fresh Step would have created.
func exportVelocity(vel map[*Param][]float32, params []*Param) [][]float32 {
	out := make([][]float32, len(params))
	for i, p := range params {
		cp := make([]float32, p.W.Len())
		copy(cp, vel[p])
		out[i] = cp
	}
	return out
}

// importVelocity installs snapshotted velocity, validating shape
// against the live parameter list.
func importVelocity(vel map[*Param][]float32, params []*Param, state [][]float32) error {
	if len(state) != len(params) {
		return fmt.Errorf("nn: optimizer state has %d tensors, model has %d parameters", len(state), len(params))
	}
	for i, p := range params {
		if len(state[i]) != p.W.Len() {
			return fmt.Errorf("nn: optimizer state %d has %d values, parameter %q wants %d",
				i, len(state[i]), p.Name, p.W.Len())
		}
	}
	for i, p := range params {
		cp := make([]float32, p.W.Len())
		copy(cp, state[i])
		vel[p] = cp
	}
	return nil
}

// PolySchedule is DeepLab's "poly" learning-rate policy with the
// linear-scaling rule and gradual warmup from Goyal et al. — the
// schedule the paper uses for distributed training:
//
//	lr(t) = target · (1 − t/T)^power, after warming up linearly from
//	BaseLR to target = BaseLR·WorldSize over WarmupSteps.
type PolySchedule struct {
	BaseLR      float64
	Power       float64
	TotalSteps  int
	WarmupSteps int
	WorldSize   int
}

// NewPolySchedule builds the schedule with DeepLab defaults
// (power 0.9) and a 5-epoch-style warmup fraction left to the caller.
func NewPolySchedule(baseLR float64, totalSteps, warmupSteps, worldSize int) PolySchedule {
	if totalSteps <= 0 || worldSize <= 0 || warmupSteps < 0 {
		panic(fmt.Sprintf("nn: bad schedule (total=%d warmup=%d world=%d)", totalSteps, warmupSteps, worldSize))
	}
	return PolySchedule{BaseLR: baseLR, Power: 0.9, TotalSteps: totalSteps, WarmupSteps: warmupSteps, WorldSize: worldSize}
}

// LR returns the learning rate for step t (0-based).
func (s PolySchedule) LR(t int) float64 {
	target := s.BaseLR * float64(s.WorldSize)
	if t < s.WarmupSteps {
		frac := float64(t+1) / float64(s.WarmupSteps)
		return s.BaseLR + (target-s.BaseLR)*frac
	}
	if t >= s.TotalSteps {
		return 0
	}
	frac := float64(t-s.WarmupSteps) / float64(s.TotalSteps-s.WarmupSteps)
	return target * math.Pow(1-frac, s.Power)
}

// GradNorm returns the global L2 norm across all parameter gradients
// (a training-health diagnostic).
func GradNorm(params []*Param) float64 {
	s := 0.0
	for _, p := range params {
		for _, v := range p.G.Data {
			s += float64(v) * float64(v)
		}
	}
	return math.Sqrt(s)
}
