package nn

// Optimizer is the update-rule contract the trainer drives.
type Optimizer interface {
	// Step applies one update from accumulated gradients.
	Step(params []*Param)
	// SetLR sets the global learning rate for the next step.
	SetLR(lr float64)
	// ExportState returns the optimiser's per-parameter state
	// (momentum velocity) in params order, for checkpointing. A
	// parameter never stepped exports a zero vector.
	ExportState(params []*Param) [][]float32
	// ImportState restores state produced by ExportState; restoring
	// it makes a resumed run continue bit-identically instead of
	// re-warming momentum from zero.
	ImportState(params []*Param, state [][]float32) error
}

// SetLR implements Optimizer for SGD.
func (o *SGD) SetLR(lr float64) { o.LR = lr }

// LARS is Layer-wise Adaptive Rate Scaling (You et al.), the standard
// remedy when the linear-scaling rule's large learning rates
// destabilise large-batch training — the regime the paper's 132-GPU
// weak scaling creates. Each parameter tensor gets a local rate
//
//	local = Trust · ‖w‖ / (‖g‖ + WeightDecay·‖w‖ + ε)
//
// and the momentum update uses local·LR instead of LR.
type LARS struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	Trust       float64
	Eps         float64

	velocity map[*Param][]float32
}

// NewLARS constructs LARS with the conventional defaults
// (momentum 0.9, trust coefficient 0.001 as in the paper's setting of
// You et al., weight decay 4e-5 matching DeepLab).
func NewLARS(lr float64) *LARS {
	return &LARS{
		LR:          lr,
		Momentum:    0.9,
		WeightDecay: 4e-5,
		Trust:       0.001,
		Eps:         1e-9,
		velocity:    map[*Param][]float32{},
	}
}

// SetLR implements Optimizer.
func (o *LARS) SetLR(lr float64) { o.LR = lr }

// Step applies the layer-wise adaptive update. Parameters exempt from
// weight decay (batch-norm scales, biases) fall back to plain
// momentum SGD, as reference implementations do.
func (o *LARS) Step(params []*Param) {
	mom := float32(o.Momentum)
	for _, p := range params {
		vel, ok := o.velocity[p]
		if !ok {
			vel = make([]float32, p.W.Len())
			o.velocity[p] = vel
		}
		g := p.G.Data
		w := p.W.Data

		lr := float32(o.LR)
		wd := float32(0)
		if p.Decay {
			wd = float32(o.WeightDecay)
			wNorm := p.W.L2Norm()
			gNorm := p.G.L2Norm()
			denom := gNorm + o.WeightDecay*wNorm + o.Eps
			if wNorm > 0 && denom > 0 {
				local := o.Trust * wNorm / denom
				lr = float32(o.LR * local)
			}
		}
		for i := range w {
			grad := g[i] + wd*w[i]
			vel[i] = mom*vel[i] + lr*grad
			w[i] -= vel[i]
		}
	}
}

// ExportState implements Optimizer.
func (o *LARS) ExportState(params []*Param) [][]float32 {
	return exportVelocity(o.velocity, params)
}

// ImportState implements Optimizer.
func (o *LARS) ImportState(params []*Param, state [][]float32) error {
	return importVelocity(o.velocity, params, state)
}

// TrustRatio reports the local rate LARS would apply to one parameter
// (diagnostic, used in tests and logging).
func (o *LARS) TrustRatio(p *Param) float64 {
	wNorm := p.W.L2Norm()
	gNorm := p.G.L2Norm()
	denom := gNorm + o.WeightDecay*wNorm + o.Eps
	if wNorm == 0 || denom == 0 {
		return 1
	}
	return o.Trust * wNorm / denom
}

var _ Optimizer = (*SGD)(nil)
var _ Optimizer = (*LARS)(nil)

// GlobalGradClip scales all gradients so their global L2 norm does
// not exceed maxNorm (a stability guard large-batch recipes add).
// It returns the pre-clip norm.
func GlobalGradClip(params []*Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if norm <= maxNorm || norm == 0 {
		return norm
	}
	scale := float32(maxNorm / norm)
	for _, p := range params {
		for i := range p.G.Data {
			p.G.Data[i] *= scale
		}
	}
	return norm
}
