// Package modelhealth is the training-health plane: per-layer
// gradient and activation statistics collected inside the per-rank
// train step, divergence sentinels with full (layer, rank, step,
// incarnation) provenance, and a deterministic per-run health ledger.
//
// The systems-side observability (telemetry spans, the efficiency
// monitor, the attribution ledger) sees img/s and wire bytes; this
// package watches the *model* — gradient L2 norms, update-to-weight
// ratios, dead-ReLU fractions, NaN/Inf sentinels — so divergence at
// large batch or a thrashing loss scale is caught at step granularity
// instead of surfacing as a silently cratered mIOU.
//
// One Plane serves a run; each rank incarnation draws a Collector
// from it. Collectors sit on the training step, so their steady state
// is allocation-free: per-layer slots and the staging row buffer are
// grown once on the first observed step and reused for the rest of the
// incarnation (train.TestTrainStepAllocBudget/w1_fp32_health).
package modelhealth

import (
	"fmt"
	"math"
	"sync"

	"segscale/internal/nn"
	"segscale/internal/telemetry"
	"segscale/internal/tensor"
)

// Alert kinds. A sentinel trip names the offending layer, rank, step
// and incarnation.
const (
	// AlertNonFiniteGrad fires when a parameter's gradient contains
	// NaN or ±Inf after the allreduce.
	AlertNonFiniteGrad = "nonfinite_grad"
	// AlertNonFiniteAct fires when a tapped activation contains NaN
	// or ±Inf.
	AlertNonFiniteAct = "nonfinite_act"
	// AlertUpdateRatio fires when lr·‖g‖/‖w‖ exceeds
	// Config.UpdRatioMax — the update would move a layer by more than
	// the configured fraction of its own magnitude. Zero-norm
	// parameters are exempt (the ratio is undefined there).
	AlertUpdateRatio = "update_ratio"
	// AlertDeadReLU fires when a tapped activation's zero fraction
	// reaches Config.DeadFracMax.
	AlertDeadReLU = "dead_relu"
)

// maxAlerts caps the retained alert log; a diverging run trips the
// same sentinel every step and must not grow memory without bound.
// Later alerts are dropped (counted in DroppedAlerts), mirroring the
// obs alert log's policy.
const maxAlerts = 1024

// Config tunes collection cadence and sentinel thresholds.
type Config struct {
	// Every collects statistics every Every-th step (default 1:
	// every step). Raising it trades step-granular provenance for
	// less ledger volume on long runs.
	Every int
	// UpdRatioMax is the update-to-weight ratio sentinel threshold.
	// 0 picks the default 10 (an update an order of magnitude larger
	// than the weights themselves — far beyond anything a converging
	// run produces, immediately hit by a blown-up learning rate);
	// negative disables the sentinel.
	UpdRatioMax float64
	// DeadFracMax trips the dead-ReLU sentinel when a tapped
	// activation's zero fraction reaches it. 0 disables (early
	// training legitimately passes through mostly-dead layers).
	DeadFracMax float64
	// OnAlert, when non-nil, is invoked synchronously from the rank
	// goroutine that tripped a sentinel, once per recorded alert —
	// the hook CLI wiring uses to dump a flight-recorder trace.
	OnAlert func(Alert)
}

func (c Config) withDefaults() Config {
	if c.Every <= 0 {
		c.Every = 1
	}
	if c.UpdRatioMax == 0 {
		c.UpdRatioMax = 10
	}
	return c
}

// Alert is one sentinel trip with full provenance.
type Alert struct {
	Seq       int     `json:"seq"`
	Kind      string  `json:"kind"`
	Layer     string  `json:"layer"`
	Rank      int     `json:"rank"`
	Inc       int     `json:"inc"`
	Step      int64   `json:"step"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	Msg       string  `json:"msg"`
}

// Row is one ledger row: the statistics of one layer (gradient or
// activation view) at one step on one rank. Non-finite values never
// reach the float fields — they are counted in NonFinite and excluded
// from the moments, keeping the JSONL encodable and the gate's
// distributions well-defined.
type Row struct {
	Step      int64   `json:"step"`
	Rank      int     `json:"rank"`
	Inc       int     `json:"inc"`
	Kind      string  `json:"kind"` // "grad" or "act"
	Layer     string  `json:"layer"`
	GradL2    float64 `json:"grad_l2,omitempty"`
	WeightL2  float64 `json:"weight_l2,omitempty"`
	UpdRatio  float64 `json:"upd_ratio,omitempty"`
	Mean      float64 `json:"mean,omitempty"`
	Std       float64 `json:"std,omitempty"`
	DeadFrac  float64 `json:"dead_frac,omitempty"`
	NonFinite int     `json:"nonfinite,omitempty"`
}

// Plane is the run-level health plane: it owns the ledger rows and
// the alert log, and hands out per-rank Collectors.
type Plane struct {
	cfg Config

	mu      sync.Mutex
	rows    []Row
	alerts  []Alert
	dropped int
}

// New creates a health plane with defaults applied.
func New(cfg Config) *Plane {
	return &Plane{cfg: cfg.withDefaults()}
}

// Rank creates the collector one rank incarnation hooks into its
// train step. The probe may be nil (metrics off, ledger still on).
func (p *Plane) Rank(rank, inc int, probe *telemetry.Probe) *Collector {
	return &Collector{
		plane:     p,
		rank:      rank,
		inc:       inc,
		probe:     probe,
		gradHist:  probe.Histogram("model_health_grad_l2_norm", telemetry.ExpBuckets(1e-4, 4, 16)),
		updHist:   probe.Histogram("model_health_update_weight_ratio", telemetry.ExpBuckets(1e-7, 4, 16)),
		deadHist:  probe.Histogram("model_health_act_dead_ratio", telemetry.ExpBuckets(0.01, 2, 8)),
		nonfinite: probe.Counter("model_health_nonfinite_total"),
		trips:     probe.Counter("model_health_sentinel_trips_total"),
		index:     map[string]*actStat{},
	}
}

// Rows returns a copy of the ledger rows collected so far.
func (p *Plane) Rows() []Row {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Row, len(p.rows))
	copy(out, p.rows)
	return out
}

// Alerts returns a copy of the retained alert log.
func (p *Plane) Alerts() []Alert {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Alert, len(p.alerts))
	copy(out, p.alerts)
	return out
}

// DroppedAlerts returns how many alerts were discarded past the
// retention cap.
func (p *Plane) DroppedAlerts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

func (p *Plane) appendRows(rows []Row) {
	p.mu.Lock()
	p.rows = append(p.rows, rows...)
	p.mu.Unlock()
}

// addAlert records a (seq-stamped to count drops, like the efficiency
// monitor's log) and returns it; the OnAlert callback runs outside
// the plane lock.
func (p *Plane) addAlert(a Alert) Alert {
	p.mu.Lock()
	a.Seq = len(p.alerts) + p.dropped
	if len(p.alerts) < maxAlerts {
		p.alerts = append(p.alerts, a)
	} else {
		p.dropped++
	}
	p.mu.Unlock()
	if p.cfg.OnAlert != nil {
		p.cfg.OnAlert(a)
	}
	return a
}

// actStat accumulates one tapped layer's activation statistics for
// the current step.
type actStat struct {
	layer        string
	count, zeros int
	nonfinite    int
	sum, sumSq   float64
}

// Collector is one rank incarnation's hot-path hook. It implements
// nn.ActivationTap; BeginStep/CollectUpdate/EndStep are nil-safe so
// the trainer calls them unconditionally.
type Collector struct {
	plane *Plane
	rank  int
	inc   int
	probe *telemetry.Probe

	gradHist  *telemetry.Histogram
	updHist   *telemetry.Histogram
	deadHist  *telemetry.Histogram
	nonfinite *telemetry.Counter
	trips     *telemetry.Counter

	step       int64
	collecting bool
	slots      []*actStat          // registration order = forward order
	index      map[string]*actStat // lookup only; never iterated
	buf        []Row               // staging for the current step, reused
}

// BeginStep opens a step window: activation taps and gradient
// collection accumulate into it until EndStep.
func (c *Collector) BeginStep(step int64) {
	if c == nil {
		return
	}
	c.step = step
	c.collecting = step%int64(c.plane.cfg.Every) == 0
	c.buf = c.buf[:0]
	for _, s := range c.slots {
		s.count, s.zeros, s.nonfinite = 0, 0, 0
		s.sum, s.sumSq = 0, 0
	}
}

// ObserveActivation implements nn.ActivationTap: one pass over the
// post-activation tensor accumulating mean/std/dead-fraction and the
// non-finite count.
func (c *Collector) ObserveActivation(layer string, act *tensor.Tensor) {
	if c == nil || !c.collecting {
		return
	}
	s := c.index[layer]
	if s == nil {
		s = &actStat{layer: layer}
		c.index[layer] = s
		c.slots = append(c.slots, s)
	}
	for _, v := range act.Data {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			s.nonfinite++
			continue
		}
		if v == 0 {
			s.zeros++
		}
		s.count++
		s.sum += f
		s.sumSq += f * f
	}
}

// CollectUpdate records per-parameter gradient statistics for an
// applied optimiser update: gradient L2, weight L2, and the
// update-to-weight ratio at the given learning rate. Gradients must
// be in their post-allreduce, pre-step state. Non-finite gradient
// elements are counted and excluded from the norms.
func (c *Collector) CollectUpdate(params []*nn.Param, lr float64) {
	if c == nil || !c.collecting {
		return
	}
	for _, p := range params {
		var g2, w2 float64
		bad := 0
		for _, v := range p.G.Data {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				bad++
				continue
			}
			g2 += f * f
		}
		for _, v := range p.W.Data {
			f := float64(v)
			if !math.IsNaN(f) && !math.IsInf(f, 0) {
				w2 += f * f
			}
		}
		gl2 := math.Sqrt(g2)
		wl2 := math.Sqrt(w2)
		// The ratio is undefined for zero-norm parameters (freshly
		// initialised biases and batch-norm shifts): any finite update
		// to a zero vector is "infinitely" large, which says nothing
		// about divergence. Reported as 0, sentinel skipped.
		upd := 0.0
		if wl2 > 0 {
			upd = lr * gl2 / wl2
		}
		c.buf = append(c.buf, Row{
			Step: c.step, Rank: c.rank, Inc: c.inc, Kind: "grad", Layer: p.Name,
			GradL2: gl2, WeightL2: wl2, UpdRatio: upd, NonFinite: bad,
		})
		c.gradHist.Observe(gl2)
		c.updHist.Observe(upd)
		if bad > 0 {
			c.nonfinite.Add(float64(bad))
			c.trip(AlertNonFiniteGrad, p.Name, float64(bad), 0)
		}
		max := c.plane.cfg.UpdRatioMax
		if max > 0 && upd > max {
			c.trip(AlertUpdateRatio, p.Name, upd, max)
		}
	}
}

// EndStep closes the step window: activation slots become ledger rows
// (in forward order), activation sentinels are evaluated, and the
// staged rows land on the plane.
func (c *Collector) EndStep() {
	if c == nil || !c.collecting {
		return
	}
	for _, s := range c.slots {
		total := s.count + s.nonfinite
		if total == 0 {
			continue // layer did not fire this step (e.g. decoder off)
		}
		var mean, std, dead float64
		if s.count > 0 {
			mean = s.sum / float64(s.count)
			v := s.sumSq/float64(s.count) - mean*mean
			if v > 0 {
				std = math.Sqrt(v)
			}
			dead = float64(s.zeros) / float64(s.count)
		}
		c.buf = append(c.buf, Row{
			Step: c.step, Rank: c.rank, Inc: c.inc, Kind: "act", Layer: s.layer,
			Mean: mean, Std: std, DeadFrac: dead, NonFinite: s.nonfinite,
		})
		c.deadHist.Observe(dead)
		if s.nonfinite > 0 {
			c.nonfinite.Add(float64(s.nonfinite))
			c.trip(AlertNonFiniteAct, s.layer, float64(s.nonfinite), 0)
		}
		max := c.plane.cfg.DeadFracMax
		if max > 0 && dead >= max {
			c.trip(AlertDeadReLU, s.layer, dead, max)
		}
	}
	c.plane.appendRows(c.buf)
}

// trip records one sentinel alert: counter, flight-recorder mark,
// alert log, and the OnAlert hook.
func (c *Collector) trip(kind, layer string, value, threshold float64) {
	c.trips.Inc()
	c.probe.Mark("HEALTH", kind)
	c.plane.addAlert(Alert{
		Kind: kind, Layer: layer, Rank: c.rank, Inc: c.inc, Step: c.step,
		Value: value, Threshold: threshold,
		Msg: fmt.Sprintf("%s: layer %s rank %d step %d inc %d (value %.6g, threshold %.6g)",
			kind, layer, c.rank, c.step, c.inc, value, threshold),
	})
}
