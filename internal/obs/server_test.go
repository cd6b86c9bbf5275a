package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"segscale/internal/modelhealth"
	"segscale/internal/nn"
	"segscale/internal/telemetry"
	"segscale/internal/tensor"
	"segscale/internal/transport"
)

// scrape GETs a path off the test server and returns status + body.
func scrape(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	col := telemetry.NewCollector()
	col.EnableFlight(16)
	probe := col.NewProbe("rank0", telemetry.NewStepClock())
	probe.Counter("train_steps_total").Inc()
	probe.Mark("STEP", "step0")

	alerts := NewAlertLog(col)
	alerts.Event("restart", "", "incarnation 1 after rank failure")

	s := NewServer(ServerOptions{Telemetry: col, Alerts: alerts})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := scrape(t, ts, "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "# TYPE") || !strings.Contains(body, "train_steps_total") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	if code, body := scrape(t, ts, "/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	// Not ready until a world arrives.
	if code, _ := scrape(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before TrackWorld = %d, want 503", code)
	}

	w, err := transport.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	s.TrackWorld(w, 0)
	if code, body := scrape(t, ts, "/readyz"); code != http.StatusOK || !strings.HasPrefix(body, "ready") {
		t.Fatalf("/readyz with healthy world = %d %q", code, body)
	}
	if _, body := scrape(t, ts, "/healthz"); !strings.Contains(body, "size=2") {
		t.Fatalf("/healthz world detail missing: %q", body)
	}

	// A rank failure poisons the incarnation: readiness drops, liveness
	// stays up and names the dead rank.
	w.Comm(1).Kill()
	if code, body := scrape(t, ts, "/readyz"); code != http.StatusServiceUnavailable ||
		!strings.Contains(body, "not ready") {
		t.Fatalf("/readyz after rank failure = %d %q", code, body)
	}
	if code, body := scrape(t, ts, "/healthz"); code != http.StatusOK ||
		!strings.Contains(body, "failed ranks: [1]") {
		t.Fatalf("/healthz after rank failure = %d %q", code, body)
	}

	// Flight dump must be a parseable Chrome trace with the recorded
	// events.
	code, body := scrape(t, ts, "/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("/debug/flight = %d", code)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("flight dump is not a JSON trace: %v\n%s", err, body)
	}
	if len(events) == 0 {
		t.Fatal("flight dump empty despite recorded events")
	}

	code, body = scrape(t, ts, "/debug/alerts")
	if code != http.StatusOK {
		t.Fatalf("/debug/alerts = %d", code)
	}
	// The payload is the alert log and nothing else: a run without a
	// baseline serves no efficiency.
	var payload map[string][]Alert
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("alerts payload: %v\n%s", err, body)
	}
	if got := payload["alerts"]; len(payload) != 1 || kinds(got) != "restart" || got[0].Seq != 0 {
		t.Fatalf("alerts payload wrong: %s", body)
	}

	if code, _ := scrape(t, ts, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d", code)
	}
}

func TestServerDisabledFeatures(t *testing.T) {
	s := NewServer(ServerOptions{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/metrics", "/debug/flight", "/debug/alerts"} {
		if code, _ := scrape(t, ts, path); code != http.StatusNotFound {
			t.Errorf("%s with nothing attached = %d, want 404", path, code)
		}
	}
	// Liveness works even with every feed disabled.
	if code, _ := scrape(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
}

func TestServerStartServesAndCloses(t *testing.T) {
	s := NewServer(ServerOptions{Addr: "127.0.0.1:0"})
	url, err := s.Start()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("GET started server: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz on started server = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still reachable after Close")
	}
	var nilServer *Server
	nilServer.TrackWorld(nil, 0) // nil receiver must be safe
}

func TestServerHealthEndpoint(t *testing.T) {
	plane := modelhealth.New(modelhealth.Config{UpdRatioMax: 1e-9})
	c := plane.Rank(0, 0, nil)
	c.BeginStep(4)
	c.CollectUpdate([]*nn.Param{{
		Name: "entry.conv",
		W:    tensor.FromSlice([]float32{1, 2}, 2),
		G:    tensor.FromSlice([]float32{0.5, 0.5}, 2),
	}}, 0.1)
	c.EndStep()

	s := NewServer(ServerOptions{Health: plane})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := scrape(t, ts, "/debug/health")
	if code != http.StatusOK {
		t.Fatalf("/debug/health: %d", code)
	}
	var snap modelhealth.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("endpoint did not serve JSON: %v\n%s", err, body)
	}
	if snap.Rows != 1 || snap.LastStep != 4 || snap.SentinelTrips != 1 {
		t.Fatalf("served snapshot %+v", snap)
	}
	if len(snap.Layers) != 1 || snap.Layers[0].Layer != "entry.conv" {
		t.Fatalf("layer summaries %+v", snap.Layers)
	}
	if len(snap.Alerts) != 1 || snap.Alerts[0].Kind != modelhealth.AlertUpdateRatio {
		t.Fatalf("alerts %+v", snap.Alerts)
	}

	// Disabled: no plane configured.
	off := httptest.NewServer(NewServer(ServerOptions{}).Handler())
	defer off.Close()
	if code, _ := scrape(t, off, "/debug/health"); code != http.StatusNotFound {
		t.Fatalf("disabled health endpoint: %d, want 404", code)
	}
}
