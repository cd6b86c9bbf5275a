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

// feed pushes n virtual-duration steps on one lane.
func feed(m *EffMonitor, lane string, n, imgs int, stepSec float64) {
	for i := 0; i < n; i++ {
		m.ObserveStep(lane, i, imgs, stepSec)
	}
}

func TestMonitorEfficiencySLOHysteresis(t *testing.T) {
	m := NewEffMonitor(nil, MonitorConfig{AnchorImgPerSec: 10, SLO: 0.9})

	feed(m, "a", window, 1, 0.1) // 10 img/s = perfect scaling
	if eff := m.LastEfficiency(); eff < 0.99 || eff > 1.01 {
		t.Fatalf("efficiency at anchor rate = %v, want ~1", eff)
	}
	if len(m.Alerts()) != 0 {
		t.Fatalf("unexpected alerts at full efficiency: %v", m.Alerts())
	}

	feed(m, "a", window, 1, 0.2) // window flushes to 5 img/s = 50%
	if eff := m.LastEfficiency(); eff > 0.51 {
		t.Fatalf("efficiency after slowdown = %v, want ~0.5", eff)
	}
	// Hysteresis: a sustained breach alerts exactly once.
	if got := kinds(m.Alerts()); got != "slo_breach:a" {
		t.Fatalf("alerts after breach = %q, want one slo_breach", got)
	}

	feed(m, "a", window, 1, 0.1)
	if got := kinds(m.Alerts()); got != "slo_breach:a,slo_recovered:a" {
		t.Fatalf("alerts after recovery = %q", got)
	}
	b, r := m.Alerts()[0], m.Alerts()[1]
	if b.Value >= 0.9 || b.Threshold != 0.9 || r.Value < 0.9 {
		t.Fatalf("alert measurements wrong: breach=%+v recovered=%+v", b, r)
	}
}

// TestMonitorSweepLanesAreNotBlended feeds lanes the way summit-sim
// does: one world size after another, each on its own lane. Every
// evaluation is the lane just observed against the baseline anchor;
// an earlier scale's lane must not blend into a later one's reading.
func TestMonitorSweepLanesAreNotBlended(t *testing.T) {
	m := NewEffMonitor(nil, MonitorConfig{AnchorImgPerSec: 10, SLO: 0.7})
	for _, lane := range []struct {
		name      string
		ranks     int
		imgPerSec float64
	}{
		{"gpus1", 1, 10},   // the baseline itself: 100%
		{"gpus6", 6, 48},   // 48 / (10 * 6) = 80%
		{"gpus12", 12, 60}, // 60 / (10 * 12) = 50%
	} {
		m.SetLaneRanks(lane.name, lane.ranks)
		feed(m, lane.name, 18, int(lane.imgPerSec), 1)
		want := lane.imgPerSec / (10 * float64(lane.ranks))
		if eff := m.LastEfficiency(); eff < want-1e-9 || eff > want+1e-9 {
			t.Fatalf("after lane %s: efficiency = %v, want the lane's own %v", lane.name, eff, want)
		}
	}
	if got := kinds(m.Alerts()); got != "slo_breach:gpus12" {
		t.Fatalf("alerts = %q, want one breach naming gpus12", got)
	}
}

// TestMonitorWithoutAnchor is the real trainer's monitor: with no
// baseline there is no efficiency and no SLO alert, only the alert log.
func TestMonitorWithoutAnchor(t *testing.T) {
	col := telemetry.NewCollector()
	m := NewEffMonitor(col, MonitorConfig{})
	feed(m, "rank0", 5*everyK, 1, 0.1)
	m.Event("restart", "", "incarnation 1 after rank failure")
	if eff := m.LastEfficiency(); eff != 0 {
		t.Fatalf("efficiency without an anchor = %v, want none", eff)
	}
	if got := kinds(m.Alerts()); got != "restart" {
		t.Fatalf("alerts = %q, want only the restart", got)
	}
	if a := m.Alerts()[0]; a.Obs != 5*everyK {
		t.Fatalf("restart stamped at observation %d, want %d", a.Obs, 5*everyK)
	}
}

func TestMonitorLaneRanksAndGauges(t *testing.T) {
	col := telemetry.NewCollector()
	m := NewEffMonitor(col, MonitorConfig{AnchorImgPerSec: 10})
	// One simulator lane covering a 6-GPU world at 48 img/s aggregate:
	// per-rank 8 img/s, efficiency 0.8.
	m.SetLaneRanks("gpus6", 6)
	feed(m, "gpus6", everyK, 48, 1.0)
	if eff := m.LastEfficiency(); eff < 0.79 || eff > 0.81 {
		t.Fatalf("world-lane efficiency = %v, want 0.8", eff)
	}

	var prom strings.Builder
	if err := col.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "obs_scaling_efficiency_ratio") {
		t.Fatalf("efficiency gauge missing from export:\n%s", prom.String())
	}
}

func TestMonitorNilIsNoOp(t *testing.T) {
	var m *EffMonitor
	m.ObserveStep("a", 0, 1, 0.1) // must not panic
	m.Event("restart", "", "x")
	m.SetLaneRanks("a", 4)
	if m.LastEfficiency() != 0 || m.Alerts() != nil || m.SLO() != 0 {
		t.Fatal("nil monitor must read as zero")
	}
}

func TestMonitorEventsAndAlertCap(t *testing.T) {
	m := NewEffMonitor(nil, MonitorConfig{AnchorImgPerSec: 10})
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
	m := NewEffMonitor(nil, MonitorConfig{AnchorImgPerSec: 10})
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
// Seq/Obs are stamped by the monitor, and nil stays a no-op.
func TestMonitorReport(t *testing.T) {
	m := NewEffMonitor(nil, MonitorConfig{AnchorImgPerSec: 10})
	feed(m, "rank0", 3, 1, 0.1) // advance the observation counter
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
	if a.Seq != 0 || a.Obs != 3 {
		t.Fatalf("monitor did not stamp seq/obs: %+v", a)
	}
	var nilMon *EffMonitor
	nilMon.Report(Alert{Kind: "x"}) // must not panic
	if nilMon.DroppedAlerts() != 0 {
		t.Fatal("nil monitor reports drops")
	}
}
