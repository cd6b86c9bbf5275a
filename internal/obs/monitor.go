// Package obs is segscale's live observability plane: an opt-in HTTP
// server exposing Prometheus metrics, liveness/readiness, pprof, and
// flight-recorder dumps; a scaling-efficiency monitor with SLO alerts;
// periodic crash-safe metric flushing; and run manifests under
// results/runs/.
//
// Everything here is strictly an observer. The training loop and the
// simulator publish through nil-safe hooks (telemetry probes, the
// trainer's telemetry.StepObserver and train.Config.OnWorld) that
// default to off, so a run with the plane disabled is bit-identical to
// one that never linked it — the deterministic goldens depend on that.
// The monitor computes no efficiency of its own: it publishes the one
// its caller measured with metrics.ScalingEfficiency against a stated
// baseline, and a run without a baseline reports none.
package obs

import (
	"fmt"
	"sync"

	"segscale/internal/telemetry"
)

// Alert is one structured event from the efficiency monitor's alert
// log — the machine-readable trail a run manifest carries.
type Alert struct {
	// Seq orders alerts within a run.
	Seq int `json:"seq"`
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

// DefaultSLO is the paper's ~92% scaling-efficiency headline.
const DefaultSLO = 0.92

// maxAlerts bounds the alert log; a monitor that cries this often has
// made its point, and manifests should stay readable.
const maxAlerts = 1024

// EffMonitor is the scaling-efficiency monitor and the run's alert
// log. It computes nothing itself: Observe takes an efficiency the
// caller has already measured against its baseline (summit-sim passes
// each scale's printed row), publishes it as a gauge on an "obs"
// telemetry lane and appends structured alerts when the SLO is
// breached. Event and Report log externally observed events. All
// methods are goroutine-safe and nil-safe.
type EffMonitor struct {
	slo float64

	mu       sync.Mutex
	lastEff  float64
	breached bool
	alerts   []Alert
	dropped  int // alerts beyond maxAlerts

	effGauge    *telemetry.Gauge
	alertsTotal *telemetry.Counter
	breachTotal *telemetry.Counter
	probe       *telemetry.Probe
}

// NewEffMonitor builds a monitor with scaling-efficiency objective slo
// (0 means DefaultSLO), publishing its gauges and counters through col
// on lane "obs" (col may be nil: the monitor still keeps its alert
// log, it just has nowhere to export gauges).
func NewEffMonitor(col *telemetry.Collector, slo float64) *EffMonitor {
	if slo == 0 {
		slo = DefaultSLO
	}
	probe := col.NewProbe("obs", telemetry.NewStepClock())
	return &EffMonitor{
		slo:         slo,
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
	return m.slo
}

// Observe records eff, the scaling efficiency just measured on lane:
// it sets obs_scaling_efficiency_ratio, leaves an EVAL mark in the
// flight recorder, and raises or clears the SLO alert (hysteresis: one
// "slo_breach" per excursion, "slo_recovered" on the way back).
// Nil-safe.
func (m *EffMonitor) Observe(lane string, eff float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastEff = eff
	m.effGauge.Set(eff)
	// Heartbeat into the flight recorder: even span-free producers (the
	// simulator) leave a readable efficiency trail in /debug/flight.
	m.probe.Mark("EVAL", fmt.Sprintf("eff %.1f%% on lane %s", 100*eff, lane))

	switch {
	case eff < m.slo && !m.breached:
		m.breached = true
		m.breachTotal.Inc()
		m.probe.Mark("ALERT", "slo_breach")
		m.addAlertLocked(Alert{Kind: "slo_breach", Lane: lane, Value: eff, Threshold: m.slo,
			Msg: fmt.Sprintf("scaling efficiency %.1f%% below SLO %.1f%%", 100*eff, 100*m.slo)})
	case eff >= m.slo && m.breached:
		m.breached = false
		m.probe.Mark("ALERT", "slo_recovered")
		m.addAlertLocked(Alert{Kind: "slo_recovered", Lane: lane, Value: eff, Threshold: m.slo,
			Msg: fmt.Sprintf("scaling efficiency back to %.1f%%", 100*eff)})
	}
}

// Event appends an externally observed alert — the trainer's restart
// path feeds "restart" here so the manifest's alert log tells the
// whole recovery story. Nil-safe.
func (m *EffMonitor) Event(kind, lane, msg string) {
	m.Report(Alert{Kind: kind, Lane: lane, Msg: msg})
}

// Report appends an externally observed alert with its full
// measurement (value and threshold), not just a message — the
// training-health plane routes sentinel trips here so divergence
// alerts land in the same manifest log as SLO breaches. Seq is
// stamped by the monitor. Nil-safe.
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
	m.alertsTotal.Inc()
	if len(m.alerts) >= maxAlerts {
		m.dropped++
		return
	}
	m.alerts = append(m.alerts, a)
}

// LastEfficiency returns the efficiency last passed to Observe (0
// before the first, and always 0 for a monitor that is only an alert
// log).
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
