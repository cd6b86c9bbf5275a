// Package obs is segscale's live observability plane for real
// training: an opt-in HTTP server exposing Prometheus metrics,
// liveness/readiness, pprof, and flight-recorder dumps; the run's
// alert log; periodic crash-safe metric flushing; and run manifests
// under results/runs/.
//
// Everything here is strictly an observer. The training loop
// publishes through nil-safe hooks (telemetry probes, the trainer's
// telemetry.StepObserver and train.Config.OnWorld) that default to
// off, so a run with the plane disabled is bit-identical to one that
// never linked it — the deterministic goldens depend on that. A real
// run has no 1-GPU baseline, so nothing here reports a scaling
// efficiency; the simulator prints its own, and its manifest carries
// the printed value.
package obs

import (
	"sync"

	"segscale/internal/telemetry"
)

// Alert is one structured event from the run's alert log — the
// machine-readable trail a run manifest carries.
type Alert struct {
	// Seq orders alerts within a run.
	Seq int `json:"seq"`
	// Kind is the caller-supplied kind fed through Event or Report:
	// "restart" from the trainer's recovery path, "health_<sentinel>"
	// from the training-health plane.
	Kind string `json:"kind"`
	// Lane names the offending executor for per-lane alerts ("" for
	// aggregate ones).
	Lane string `json:"lane,omitempty"`
	// Value / Threshold carry the measurement that tripped the alert
	// (the sentinel's reading for health alerts).
	Value     float64 `json:"value,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Msg       string  `json:"msg"`
}

// maxAlerts bounds the alert log; a run that alerts this often has
// made its point, and manifests should stay readable.
const maxAlerts = 1024

// AlertLog is the run's alert log: Event and Report append externally
// observed events, each counted on the obs_alerts_total counter of an
// "obs" telemetry lane. All methods are goroutine-safe and nil-safe.
type AlertLog struct {
	mu      sync.Mutex
	alerts  []Alert
	dropped int // alerts beyond maxAlerts

	alertsTotal *telemetry.Counter
}

// NewAlertLog builds an alert log that counts its alerts through col
// on lane "obs" (col may be nil: the log still keeps its alerts, it
// just has nowhere to export the counter).
func NewAlertLog(col *telemetry.Collector) *AlertLog {
	probe := col.NewProbe("obs", telemetry.NewStepClock())
	return &AlertLog{alertsTotal: probe.Counter("obs_alerts_total")}
}

// Event appends an externally observed alert — the trainer's restart
// path feeds "restart" here so the manifest's alert log tells the
// whole recovery story. Nil-safe.
func (l *AlertLog) Event(kind, lane, msg string) {
	l.Report(Alert{Kind: kind, Lane: lane, Msg: msg})
}

// Report appends an externally observed alert with its full
// measurement (value and threshold), not just a message — the
// training-health plane routes sentinel trips here so divergence
// alerts land in the same manifest log as restarts. Seq is stamped by
// the log. Nil-safe.
func (l *AlertLog) Report(a Alert) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a.Seq = len(l.alerts) + l.dropped
	l.alertsTotal.Inc()
	if len(l.alerts) >= maxAlerts {
		l.dropped++
		return
	}
	l.alerts = append(l.alerts, a)
}

// DroppedAlerts returns how many alerts were discarded beyond the
// retention cap; the Seq of retained alerts keeps counting across
// drops, so len(Alerts()) + DroppedAlerts() is the true alert total.
func (l *AlertLog) DroppedAlerts() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Alerts returns a copy of the alert log (oldest first).
func (l *AlertLog) Alerts() []Alert {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Alert(nil), l.alerts...)
}
