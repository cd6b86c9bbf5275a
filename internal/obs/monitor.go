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
// linked it — the deterministic goldens depend on that. Scaling
// efficiency is only ever metrics.ScalingEfficiency against a stated
// baseline's single-rank rate; a run without a baseline reports none.
package obs

import (
	"fmt"
	"sync"

	"segscale/internal/metrics"
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
	// Kind is "slo_breach" or "slo_recovered" (raised by the monitor),
	// or a caller-supplied kind fed through Event or Report: "restart"
	// from the trainer's recovery path, "health_<sentinel>" from the
	// training-health plane.
	Kind string `json:"kind"`
	// Lane names the offending executor for per-lane alerts ("" for
	// aggregate ones).
	Lane string `json:"lane,omitempty"`
	// Value / Threshold carry the measurement that tripped the alert
	// (efficiency for SLO alerts, the sentinel's reading for health
	// alerts).
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Msg       string  `json:"msg"`
}

// MonitorConfig configures the efficiency monitor.
type MonitorConfig struct {
	// AnchorImgPerSec is the single-rank throughput of the stated
	// baseline that perfect scaling is measured against: summit-sim
	// passes its 1-GPU run of the same simulator options. Zero means
	// there is no baseline, and the monitor computes no efficiency and
	// raises no SLO alert; it is then only the alert log.
	AnchorImgPerSec float64
	// SLO is the scaling-efficiency objective; a lane's efficiency
	// below it raises an "slo_breach" alert (hysteresis: one alert per
	// excursion, "slo_recovered" on the way back). Default 0.92, the
	// paper's headline.
	SLO float64
}

// DefaultSLO is the paper's ~92% scaling-efficiency headline.
const DefaultSLO = 0.92

const (
	// window is each lane's rolling window, in steps.
	window = 20
	// everyK evaluates efficiency every everyK step observations.
	everyK = 10
	// maxAlerts bounds the alert log; a monitor that cries this often
	// has made its point, and manifests should stay readable.
	maxAlerts = 1024
)

// laneStat is one executor's rolling window.
type laneStat struct {
	ranks   int // data-parallel ranks this lane aggregates (sim lanes cover whole worlds)
	durs    [window]float64
	imgs    [window]float64
	next, n int
	sumDur  float64
	sumImgs float64
}

func (l *laneStat) push(dur, img float64) {
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

// EffMonitor is the online scaling-efficiency monitor: it consumes
// per-step notifications (telemetry.StepObserver), keeps a rolling
// per-lane img/s window, and every everyK observations computes the
// observed lane's scaling efficiency against the baseline anchor,
// publishing a gauge on an "obs" telemetry lane and appending
// structured alerts when the SLO is breached. It is also the run's
// alert log for externally observed events. All methods are
// goroutine-safe and nil-safe.
type EffMonitor struct {
	cfg MonitorConfig

	mu        sync.Mutex
	lanes     map[string]*laneStat
	globalObs int
	lastEff   float64
	breached  bool
	alerts    []Alert
	dropped   int // alerts beyond maxAlerts

	effGauge    *telemetry.Gauge
	alertsTotal *telemetry.Counter
	breachTotal *telemetry.Counter
	probe       *telemetry.Probe
}

// NewEffMonitor builds a monitor publishing its gauges and counters
// through col on lane "obs" (col may be nil: the monitor still
// computes efficiency and alerts, it just has nowhere to export
// gauges).
func NewEffMonitor(col *telemetry.Collector, cfg MonitorConfig) *EffMonitor {
	if cfg.SLO == 0 {
		cfg.SLO = DefaultSLO
	}
	probe := col.NewProbe("obs", telemetry.NewStepClock())
	return &EffMonitor{
		cfg:         cfg,
		lanes:       map[string]*laneStat{},
		probe:       probe,
		effGauge:    probe.Gauge("obs_scaling_efficiency_ratio"),
		alertsTotal: probe.Counter("obs_alerts_total"),
		breachTotal: probe.Counter("obs_slo_breaches_total"),
	}
}

// SLO returns the configured efficiency objective.
func (m *EffMonitor) SLO() float64 {
	if m == nil {
		return 0
	}
	return m.cfg.SLO
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
		ls = &laneStat{ranks: 1}
		m.lanes[name] = ls
	}
	return ls
}

// ObserveStep implements telemetry.StepObserver. stepSec is the step's
// duration (the simulator's virtual seconds); a step without one
// (stepSec <= 0) is counted but not measured. Nil-safe.
func (m *EffMonitor) ObserveStep(lane string, step, imgs int, stepSec float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.globalObs++
	if m.cfg.AnchorImgPerSec > 0 && stepSec > 0 {
		ls := m.lane(lane)
		ls.push(stepSec, float64(imgs))
		if m.globalObs%everyK == 0 {
			m.evaluateLocked(lane, ls)
		}
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

// evaluateLocked recomputes the efficiency of the lane just observed
// and raises or clears the SLO alert. Caller holds mu.
func (m *EffMonitor) evaluateLocked(name string, ls *laneStat) {
	eff := metrics.ScalingEfficiency(m.cfg.AnchorImgPerSec, ls.sumImgs/ls.sumDur, ls.ranks)
	m.lastEff = eff
	m.effGauge.Set(eff)
	// Heartbeat into the flight recorder: even span-free producers (the
	// simulator) leave a readable efficiency trail in /debug/flight.
	m.probe.Mark("EVAL", fmt.Sprintf("eff %.1f%% on lane %s", 100*eff, name))

	switch {
	case eff < m.cfg.SLO && !m.breached:
		m.breached = true
		m.breachTotal.Inc()
		m.probe.Mark("ALERT", "slo_breach")
		m.addAlertLocked(Alert{Kind: "slo_breach", Lane: name, Value: eff, Threshold: m.cfg.SLO,
			Msg: fmt.Sprintf("scaling efficiency %.1f%% below SLO %.1f%%", 100*eff, 100*m.cfg.SLO)})
	case eff >= m.cfg.SLO && m.breached:
		m.breached = false
		m.probe.Mark("ALERT", "slo_recovered")
		m.addAlertLocked(Alert{Kind: "slo_recovered", Lane: name, Value: eff, Threshold: m.cfg.SLO,
			Msg: fmt.Sprintf("scaling efficiency back to %.1f%%", 100*eff)})
	}
}

// LastEfficiency returns the most recent evaluation's scaling
// efficiency, that of the lane last observed (0 before the first
// evaluation, and always 0 without an anchor).
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
