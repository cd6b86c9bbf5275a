package obs

import (
	"strings"
	"testing"

	"segscale/internal/telemetry"
)

// kinds flattens an alert log for order-sensitive assertions.
func kinds(alerts []Alert) string {
	parts := make([]string, len(alerts))
	for i, a := range alerts {
		parts[i] = a.Kind
		if a.Lane != "" {
			parts[i] += ":" + a.Lane
		}
	}
	return strings.Join(parts, ",")
}

func TestMonitorEfficiencySLOHysteresis(t *testing.T) {
	m := NewEffMonitor(nil, 0.9)

	m.Observe("a", 1)
	if eff := m.LastEfficiency(); eff != 1 {
		t.Fatalf("efficiency = %v, want the observed 1", eff)
	}
	if len(m.Alerts()) != 0 {
		t.Fatalf("unexpected alerts at full efficiency: %v", m.Alerts())
	}

	m.Observe("a", 0.5)
	m.Observe("b", 0.6)
	if eff := m.LastEfficiency(); eff != 0.6 {
		t.Fatalf("efficiency = %v, want the last observed 0.6", eff)
	}
	// Hysteresis: a sustained breach alerts exactly once.
	if got := kinds(m.Alerts()); got != "slo_breach:a" {
		t.Fatalf("alerts after breach = %q, want one slo_breach", got)
	}

	m.Observe("c", 0.95)
	m.Observe("d", 0.9) // at the objective is not a breach
	if got := kinds(m.Alerts()); got != "slo_breach:a,slo_recovered:c" {
		t.Fatalf("alerts after recovery = %q", got)
	}
	b, r := m.Alerts()[0], m.Alerts()[1]
	if b.Value != 0.5 || b.Threshold != 0.9 || r.Value != 0.95 || r.Threshold != 0.9 {
		t.Fatalf("alert measurements wrong: breach=%+v recovered=%+v", b, r)
	}
}

// TestMonitorSweepLanesAreNotBlended observes lanes the way summit-sim
// does: one world size after another, each scale's printed efficiency
// on its own lane. Every reading is the value observed, so an earlier
// scale never blends into a later one's.
func TestMonitorSweepLanesAreNotBlended(t *testing.T) {
	m := NewEffMonitor(nil, 0.7)
	for _, lane := range []struct {
		name string
		eff  float64
	}{
		{"gpus1", 1},
		{"gpus6", 0.8},
		{"gpus12", 0.5},
	} {
		m.Observe(lane.name, lane.eff)
		if eff := m.LastEfficiency(); eff != lane.eff {
			t.Fatalf("after lane %s: efficiency = %v, want the lane's own %v", lane.name, eff, lane.eff)
		}
	}
	if got := kinds(m.Alerts()); got != "slo_breach:gpus12" {
		t.Fatalf("alerts = %q, want one breach naming gpus12", got)
	}
}

// TestMonitorWithoutAnchor is the real trainer's monitor: with no
// baseline there is nothing to observe, so no efficiency and no SLO
// alert, only the alert log.
func TestMonitorWithoutAnchor(t *testing.T) {
	m := NewEffMonitor(telemetry.NewCollector(), 0)
	m.Event("restart", "", "incarnation 1 after rank failure")
	if eff := m.LastEfficiency(); eff != 0 {
		t.Fatalf("efficiency without a baseline = %v, want none", eff)
	}
	if got := kinds(m.Alerts()); got != "restart" {
		t.Fatalf("alerts = %q, want only the restart", got)
	}
}

// TestMonitorGaugesAndFlightMarks checks what observations publish:
// the gauge holds the last observed value exactly, the breach counter
// counts, and the flight ring carries the EVAL and ALERT marks.
func TestMonitorGaugesAndFlightMarks(t *testing.T) {
	col := telemetry.NewCollector()
	flight := col.EnableFlight(16)
	m := NewEffMonitor(col, 0.92)
	m.Observe("gpus6", 0.966)
	m.Observe("gpus12", 0.8)

	var prom strings.Builder
	if err := col.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`obs_scaling_efficiency_ratio{lane="obs"} 0.8` + "\n",
		`obs_slo_breaches_total{lane="obs"} 1` + "\n",
		`obs_alerts_total{lane="obs"} 1` + "\n",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Fatalf("export lacks %q:\n%s", want, prom.String())
		}
	}
	var marks []string
	for _, e := range flight.Snapshot() {
		marks = append(marks, e.Name)
	}
	want := "eff 96.6% on lane gpus6,eff 80.0% on lane gpus12,slo_breach"
	if got := strings.Join(marks, ","); got != want {
		t.Fatalf("flight marks = %q, want %q", got, want)
	}
}

func TestMonitorNilIsNoOp(t *testing.T) {
	var m *EffMonitor
	m.Observe("a", 0.5) // must not panic
	m.Event("restart", "", "x")
	if m.LastEfficiency() != 0 || m.Alerts() != nil || m.SLO() != 0 {
		t.Fatal("nil monitor must read as zero")
	}
}

func TestMonitorEventsAndAlertCap(t *testing.T) {
	m := NewEffMonitor(nil, 0)
	for i := 0; i < maxAlerts+10; i++ {
		m.Event("restart", "", "again")
	}
	got := m.Alerts()
	if len(got) != maxAlerts {
		t.Fatalf("alert log length = %d, want capped at %d", len(got), maxAlerts)
	}
	if got[0].Seq != 0 || got[len(got)-1].Seq != maxAlerts-1 {
		t.Fatalf("alert seqs broken: first=%d last=%d", got[0].Seq, got[len(got)-1].Seq)
	}
}

// TestMonitorDroppedAlertCounting pins the drop-counter path: past the
// retention cap the counter keeps the true total, and would-be Seq
// values keep advancing across drops (so a later Report is stamped as
// if the dropped alerts were still in the log).
func TestMonitorDroppedAlertCounting(t *testing.T) {
	m := NewEffMonitor(nil, 0)
	if m.DroppedAlerts() != 0 {
		t.Fatal("fresh monitor reports drops")
	}
	for i := 0; i < maxAlerts+25; i++ {
		m.Event("restart", "", "again")
	}
	if got := m.DroppedAlerts(); got != 25 {
		t.Fatalf("dropped = %d, want 25", got)
	}
	if got := len(m.Alerts()); got != maxAlerts {
		t.Fatalf("retained = %d, want cap %d", got, maxAlerts)
	}
	// The true total is reconstructible.
	if total := len(m.Alerts()) + m.DroppedAlerts(); total != maxAlerts+25 {
		t.Fatalf("reconstructed total = %d, want %d", total, maxAlerts+25)
	}
}

// TestMonitorReport covers externally sourced alerts (the health
// plane's sentinel trips route through here): fields pass through,
// Seq is stamped by the monitor, and nil stays a no-op.
func TestMonitorReport(t *testing.T) {
	m := NewEffMonitor(nil, 0)
	m.Observe("gpus6", 1) // an observation raises no alert and takes no Seq
	m.Report(Alert{
		Kind: "health_nonfinite_grad", Lane: "rank1",
		Value: 3, Threshold: 0, Msg: "nonfinite_grad: layer aspp.b0 rank 1 step 7 inc 0",
	})
	got := m.Alerts()
	if len(got) != 1 {
		t.Fatalf("alerts = %+v, want one reported", got)
	}
	a := got[0]
	if a.Kind != "health_nonfinite_grad" || a.Lane != "rank1" || a.Value != 3 {
		t.Fatalf("reported alert mangled: %+v", a)
	}
	if a.Seq != 0 {
		t.Fatalf("monitor did not stamp seq: %+v", a)
	}
	var nilMon *EffMonitor
	nilMon.Report(Alert{Kind: "x"}) // must not panic
	if nilMon.DroppedAlerts() != 0 {
		t.Fatal("nil monitor reports drops")
	}
}
