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

// TestMonitorWithoutAnchor is the real trainer's alert log: with no
// baseline it exports only its alert counter, never an efficiency.
func TestMonitorWithoutAnchor(t *testing.T) {
	col := telemetry.NewCollector()
	l := NewAlertLog(col)
	l.Event("restart", "", "incarnation 1 after rank failure")
	if got := kinds(l.Alerts()); got != "restart" {
		t.Fatalf("alerts = %q, want only the restart", got)
	}

	var prom strings.Builder
	if err := col.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if want := `obs_alerts_total{lane="obs"} 1` + "\n"; !strings.Contains(prom.String(), want) {
		t.Fatalf("export lacks %q:\n%s", want, prom.String())
	}
	if strings.Contains(prom.String(), "efficiency") {
		t.Fatalf("an alert log without a baseline exports an efficiency:\n%s", prom.String())
	}
}

func TestMonitorNilIsNoOp(t *testing.T) {
	var l *AlertLog
	l.Event("restart", "", "x") // must not panic
	if l.Alerts() != nil || l.DroppedAlerts() != 0 {
		t.Fatal("nil alert log must read as empty")
	}
}

func TestMonitorEventsAndAlertCap(t *testing.T) {
	l := NewAlertLog(nil)
	for i := 0; i < maxAlerts+10; i++ {
		l.Event("restart", "", "again")
	}
	got := l.Alerts()
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
	l := NewAlertLog(nil)
	if l.DroppedAlerts() != 0 {
		t.Fatal("fresh alert log reports drops")
	}
	for i := 0; i < maxAlerts+25; i++ {
		l.Event("restart", "", "again")
	}
	if got := l.DroppedAlerts(); got != 25 {
		t.Fatalf("dropped = %d, want 25", got)
	}
	if got := len(l.Alerts()); got != maxAlerts {
		t.Fatalf("retained = %d, want cap %d", got, maxAlerts)
	}
	// The true total is reconstructible.
	if total := len(l.Alerts()) + l.DroppedAlerts(); total != maxAlerts+25 {
		t.Fatalf("reconstructed total = %d, want %d", total, maxAlerts+25)
	}
}

// TestMonitorReport covers externally sourced alerts (the health
// plane's sentinel trips route through here): fields pass through,
// Seq is stamped by the log, and nil stays a no-op.
func TestMonitorReport(t *testing.T) {
	l := NewAlertLog(nil)
	l.Event("restart", "", "incarnation 1 after rank failure")
	l.Report(Alert{
		Kind: "health_nonfinite_grad", Lane: "rank1",
		Value: 3, Threshold: 0, Msg: "nonfinite_grad: layer aspp.b0 rank 1 step 7 inc 0",
	})
	got := l.Alerts()
	if kinds(got) != "restart,health_nonfinite_grad:rank1" {
		t.Fatalf("alerts = %+v, want the event then the report", got)
	}
	a := got[1]
	if a.Value != 3 || a.Msg != "nonfinite_grad: layer aspp.b0 rank 1 step 7 inc 0" {
		t.Fatalf("reported alert mangled: %+v", a)
	}
	if got[0].Seq != 0 || a.Seq != 1 {
		t.Fatalf("log did not stamp seqs: %+v", got)
	}
	var nilLog *AlertLog
	nilLog.Report(Alert{Kind: "x"}) // must not panic
	if nilLog.DroppedAlerts() != 0 {
		t.Fatal("nil alert log reports drops")
	}
}
