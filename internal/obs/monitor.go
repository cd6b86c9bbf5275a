// Package obs is segscale's live observability plane: an opt-in HTTP
// server exposing Prometheus metrics, liveness/readiness, pprof, and
// flight-recorder dumps; an online scaling-efficiency monitor with
// SLO alerts; periodic crash-safe metric flushing; and run manifests
// under results/runs/.
//
// Everything here is strictly an observer. The training loop and the
// simulator publish through nil-safe hooks (telemetry probes,
// telemetry.StepObserver, train.Config.OnWorld) that default to off,
// so a run with the plane disabled is bit-identical to one that never
// linked it — the deterministic goldens depend on that. Unlike the
// telemetry package (which must stay wall-clock-free), obs lives at
// the edge of the system and may read real time: rolling img/s for
// real training is measured here, not in the trainer.
package obs

import (
	"fmt"
	"math"
	"sync"
	"time"

	"segscale/internal/telemetry"
)

// Alert is one structured event from the efficiency monitor's alert
// log — the machine-readable trail a run manifest carries.
type Alert struct {
	// Seq orders alerts within a run.
	Seq int `json:"seq"`
	// Obs is the global observation (step notification) count when the
	// alert fired.
	Obs int `json:"obs"`
	// Kind is "slo_breach", "slo_recovered", "straggler",
	// "straggler_recovered", "restart", or a caller-supplied kind fed
	// through Event.
	Kind string `json:"kind"`
	// Lane names the offending executor for per-lane alerts ("" for
	// aggregate ones).
	Lane string `json:"lane,omitempty"`
	// Value / Threshold carry the measurement that tripped the alert
	// (efficiency for SLO alerts, z-score for straggler alerts).
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Msg       string  `json:"msg"`
}

// MonitorConfig tunes the efficiency monitor. The zero value gives
// the paper-derived defaults.
type MonitorConfig struct {
	// AnchorImgPerSec is the single-rank throughput perfect scaling is
	// measured against — the paper's calibration anchor is 6.7 img/s
	// for DeepLab-v3+ on a V100. Zero self-calibrates: the first
	// efficiency evaluation's per-rank rate becomes the anchor, which
	// is the right choice for real training whose absolute throughput
	// is machine-dependent.
	AnchorImgPerSec float64
	// SLO is the scaling-efficiency objective; aggregate efficiency
	// below it raises an "slo_breach" alert (hysteresis: one alert per
	// excursion, "slo_recovered" on the way back). Default 0.92, the
	// paper's headline.
	SLO float64
	// Window is the per-lane rolling window, in steps (default 20).
	Window int
	// EveryK evaluates efficiency and straggler scores every K step
	// observations (default 10).
	EveryK int
	// ZThreshold flags a lane as a straggler when its per-rank rate
	// falls this many standard deviations below the lane mean
	// (default 3).
	ZThreshold float64
	// StaleAfter drops a lane from the aggregate after it has gone
	// this many global observations without a step — a crashed rank's
	// lane must stop depressing efficiency once its restarted
	// incarnation's lane has taken over (default 160).
	StaleAfter int
}

func (c MonitorConfig) canon() MonitorConfig {
	if c.SLO == 0 {
		c.SLO = DefaultSLO
	}
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.EveryK <= 0 {
		c.EveryK = 10
	}
	if c.ZThreshold <= 0 {
		c.ZThreshold = 3
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 160
	}
	return c
}

// DefaultSLO is the paper's ~92% scaling-efficiency headline.
const DefaultSLO = 0.92

// maxAlerts bounds the alert log; a monitor that cries this often has
// made its point, and manifests should stay readable.
const maxAlerts = 1024

// laneStat is one executor's rolling window.
type laneStat struct {
	ranks    int       // data-parallel ranks this lane aggregates (sim lanes cover whole worlds)
	durs     []float64 // ring of step durations (seconds)
	imgs     []float64 // ring of images per step
	next, n  int
	sumDur   float64
	sumImgs  float64
	lastWall float64 // last wall-clock observation (stepSec<=0 mode)
	hasWall  bool
	lastObs  int // global observation index of the last update
	straggle bool
}

func (l *laneStat) push(dur, img float64, window int) {
	if l.n == window {
		l.sumDur -= l.durs[l.next]
		l.sumImgs -= l.imgs[l.next]
	} else {
		l.n++
	}
	l.durs[l.next] = dur
	l.imgs[l.next] = img
	l.sumDur += dur
	l.sumImgs += img
	l.next = (l.next + 1) % window
}

// rate returns the lane's rolling throughput in img/s.
func (l *laneStat) rate() float64 {
	if l.sumDur <= 0 {
		return 0
	}
	return l.sumImgs / l.sumDur
}

// EffMonitor is the online scaling-efficiency monitor: it consumes
// per-step notifications (telemetry.StepObserver), keeps a rolling
// per-lane img/s window, and every EveryK observations computes the
// aggregate scaling efficiency against the calibration anchor plus a
// per-lane straggler z-score, publishing gauges on an "obs" telemetry
// lane and appending structured alerts when the SLO is breached. All
// methods are goroutine-safe and nil-safe.
type EffMonitor struct {
	cfg    MonitorConfig
	nowSec func() float64 // injected monotonic clock (tests); wall time by default

	mu        sync.Mutex
	lanes     map[string]*laneStat
	order     []string
	globalObs int
	anchor    float64 // resolved anchor (self-calibrated when cfg.AnchorImgPerSec == 0)
	lastEff   float64
	breached  bool
	alerts    []Alert
	dropped   int // alerts beyond maxAlerts

	effGauge    *telemetry.Gauge
	zGauge      *telemetry.Gauge
	alertsTotal *telemetry.Counter
	breachTotal *telemetry.Counter
	probe       *telemetry.Probe
}

// NewEffMonitor builds a monitor publishing its gauges and counters
// through col on lane "obs" (col may be nil: the monitor still
// computes efficiency and alerts, it just has nowhere to export
// gauges).
func NewEffMonitor(col *telemetry.Collector, cfg MonitorConfig) *EffMonitor {
	probe := col.NewProbe("obs", telemetry.NewStepClock())
	start := time.Now()
	m := &EffMonitor{
		cfg:         cfg.canon(),
		nowSec:      func() float64 { return time.Since(start).Seconds() },
		lanes:       map[string]*laneStat{},
		anchor:      cfg.AnchorImgPerSec,
		probe:       probe,
		effGauge:    probe.Gauge("obs_scaling_efficiency_ratio"),
		zGauge:      probe.Gauge("obs_straggler_zscore_ratio"),
		alertsTotal: probe.Counter("obs_alerts_total"),
		breachTotal: probe.Counter("obs_slo_breaches_total"),
	}
	return m
}

// SLO returns the configured efficiency objective.
func (m *EffMonitor) SLO() float64 {
	if m == nil {
		return 0
	}
	return m.cfg.SLO
}

// Anchor returns the resolved calibration anchor in img/s per rank
// (0 until self-calibration has happened).
func (m *EffMonitor) Anchor() float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.anchor
}

// SetLaneRanks declares how many data-parallel ranks a lane
// aggregates (default 1). The simulator reports whole worlds on one
// lane, so efficiency must divide its throughput across the world's
// GPU count.
func (m *EffMonitor) SetLaneRanks(lane string, ranks int) {
	if m == nil || ranks <= 0 {
		return
	}
	m.mu.Lock()
	m.lane(lane).ranks = ranks
	m.mu.Unlock()
}

// lane returns (creating if needed) a lane's stats. Caller holds mu.
func (m *EffMonitor) lane(name string) *laneStat {
	ls, ok := m.lanes[name]
	if !ok {
		ls = &laneStat{
			ranks: 1,
			durs:  make([]float64, m.cfg.Window),
			imgs:  make([]float64, m.cfg.Window),
		}
		m.lanes[name] = ls
		m.order = append(m.order, name)
	}
	return ls
}

// ObserveStep implements telemetry.StepObserver. stepSec > 0 is a
// modelled virtual duration (the simulator); stepSec <= 0 means "you
// time it", and the monitor measures the wall-clock gap between
// consecutive observations on the lane (the first observation only
// starts the clock). Nil-safe.
func (m *EffMonitor) ObserveStep(lane string, step, imgs int, stepSec float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	ls := m.lane(lane)
	dur := stepSec
	if stepSec <= 0 {
		now := m.nowSec()
		if ls.hasWall {
			dur = now - ls.lastWall
		}
		ls.lastWall = now
		ls.hasWall = true
	}
	if dur > 0 {
		ls.push(dur, float64(imgs), m.cfg.Window)
	}
	m.globalObs++
	ls.lastObs = m.globalObs
	if m.globalObs%m.cfg.EveryK == 0 {
		m.evaluateLocked()
	}
	m.mu.Unlock()
}

// Event appends an externally observed alert — the trainer's restart
// path feeds "restart" here so the manifest's alert log tells the
// whole recovery story. Nil-safe.
func (m *EffMonitor) Event(kind, lane, msg string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.addAlertLocked(Alert{Kind: kind, Lane: lane, Msg: msg})
	m.mu.Unlock()
}

// Report appends an externally observed alert with its full
// measurement (value and threshold), not just a message — the
// training-health plane routes sentinel trips here so divergence
// alerts land in the same manifest log as SLO breaches. Seq and Obs
// are stamped by the monitor. Nil-safe.
func (m *EffMonitor) Report(a Alert) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.addAlertLocked(a)
	m.mu.Unlock()
}

// DroppedAlerts returns how many alerts were discarded beyond the
// retention cap; the Seq of retained alerts keeps counting across
// drops, so len(Alerts()) + DroppedAlerts() is the true alert total.
func (m *EffMonitor) DroppedAlerts() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dropped
}

func (m *EffMonitor) addAlertLocked(a Alert) {
	a.Seq = len(m.alerts) + m.dropped
	a.Obs = m.globalObs
	m.alertsTotal.Inc()
	if len(m.alerts) >= maxAlerts {
		m.dropped++
		return
	}
	m.alerts = append(m.alerts, a)
}

// evaluateLocked recomputes efficiency and straggler scores. Caller
// holds mu.
func (m *EffMonitor) evaluateLocked() {
	type active struct {
		name string
		ls   *laneStat
	}
	var act []active
	totalRate, totalRanks := 0.0, 0
	for _, name := range m.order {
		ls := m.lanes[name]
		if ls.n == 0 || m.globalObs-ls.lastObs > m.cfg.StaleAfter {
			continue
		}
		act = append(act, active{name, ls})
		totalRate += ls.rate()
		totalRanks += ls.ranks
	}
	if totalRanks == 0 || totalRate <= 0 {
		return
	}
	if m.anchor <= 0 {
		// Self-calibration: the first stable reading defines "perfect".
		m.anchor = totalRate / float64(totalRanks)
	}
	eff := totalRate / (m.anchor * float64(totalRanks))
	m.lastEff = eff
	m.effGauge.Set(eff)
	// Heartbeat into the flight recorder: even span-free producers (the
	// simulator) leave a readable efficiency trail in /debug/flight.
	m.probe.Mark("EVAL", fmt.Sprintf("eff %.1f%% over %d lanes", 100*eff, len(act)))

	switch {
	case eff < m.cfg.SLO && !m.breached:
		m.breached = true
		m.breachTotal.Inc()
		m.probe.Mark("ALERT", "slo_breach")
		m.addAlertLocked(Alert{Kind: "slo_breach", Value: eff, Threshold: m.cfg.SLO,
			Msg: fmt.Sprintf("scaling efficiency %.1f%% below SLO %.1f%%", 100*eff, 100*m.cfg.SLO)})
	case eff >= m.cfg.SLO && m.breached:
		m.breached = false
		m.probe.Mark("ALERT", "slo_recovered")
		m.addAlertLocked(Alert{Kind: "slo_recovered", Value: eff, Threshold: m.cfg.SLO,
			Msg: fmt.Sprintf("scaling efficiency back to %.1f%%", 100*eff)})
	}

	// Straggler z-scores need a population: at least 3 active lanes.
	if len(act) < 3 {
		return
	}
	mean, n := 0.0, float64(len(act))
	perRank := make([]float64, len(act))
	for i, a := range act {
		perRank[i] = a.ls.rate() / float64(a.ls.ranks)
		mean += perRank[i]
	}
	mean /= n
	var varSum float64
	for _, r := range perRank {
		varSum += (r - mean) * (r - mean)
	}
	std := math.Sqrt(varSum / n)
	if std == 0 {
		return
	}
	worst := 0.0
	for i, a := range act {
		z := (mean - perRank[i]) / std // positive = slower than the pack
		if z > worst {
			worst = z
		}
		switch {
		case z > m.cfg.ZThreshold && !a.ls.straggle:
			a.ls.straggle = true
			m.probe.Mark("ALERT", "straggler")
			m.addAlertLocked(Alert{Kind: "straggler", Lane: a.name, Value: z, Threshold: m.cfg.ZThreshold,
				Msg: fmt.Sprintf("lane %s runs %.1f img/s/rank against a mean of %.1f (z=%.1f)",
					a.name, perRank[i], mean, z)})
		case z <= m.cfg.ZThreshold/2 && a.ls.straggle:
			a.ls.straggle = false
			m.addAlertLocked(Alert{Kind: "straggler_recovered", Lane: a.name, Value: z, Threshold: m.cfg.ZThreshold,
				Msg: fmt.Sprintf("lane %s caught back up (z=%.1f)", a.name, z)})
		}
	}
	m.zGauge.Set(worst)
}

// LastEfficiency returns the most recent aggregate scaling efficiency
// (0 before the first evaluation).
func (m *EffMonitor) LastEfficiency() float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastEff
}

// Alerts returns a copy of the alert log (oldest first).
func (m *EffMonitor) Alerts() []Alert {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}
