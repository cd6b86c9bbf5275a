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
	"segscale/internal/traceanalysis"
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

	mon := NewEffMonitor(col, 0)
	mon.Observe("gpus6", 0.95)

	s := NewServer(ServerOptions{Telemetry: col, Monitor: mon})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := scrape(t, ts, "/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "# TYPE") || !strings.Contains(body, "train_steps_total") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	if code, body := scrape(t, ts, "/healthz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	// Not ready until a world (or SetReady) arrives.
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
	var alerts struct {
		Efficiency float64 `json:"efficiency"`
		SLO        float64 `json:"slo"`
		Alerts     []Alert `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(body), &alerts); err != nil {
		t.Fatalf("alerts payload: %v\n%s", err, body)
	}
	if alerts.SLO != DefaultSLO || alerts.Efficiency != 0.95 || alerts.Alerts == nil {
		t.Fatalf("alerts payload wrong: %+v", alerts)
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
	// SetReady covers producers with no transport world (the simulator).
	s.SetReady(true)
	if code, _ := scrape(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz after SetReady = %d", code)
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
	nilServer.SetReady(true)
}

func TestServerAttributionEndpoint(t *testing.T) {
	rec := traceanalysis.NewLedgerRecorder("perfsim", 2)
	var b traceanalysis.BucketSet
	b[traceanalysis.BucketForward] = 1.5
	b[traceanalysis.BucketIdleWait] = 0.5
	rec.Record(traceanalysis.StepAttribution{
		Step: 0, Rank: 0, StepSec: b.Sum(), Buckets: b,
		BlameRank: 1, BlameEdge: "1>0#0.0",
	})
	s := NewServer(ServerOptions{Attribution: rec})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := scrape(t, ts, "/debug/attribution")
	if code != http.StatusOK {
		t.Fatalf("/debug/attribution: %d", code)
	}
	l, err := traceanalysis.ReadLedger(strings.NewReader(body))
	if err != nil {
		t.Fatalf("endpoint did not serve a valid ledger: %v", err)
	}
	if l.Ranks != 2 || len(l.Steps) != 1 || l.Steps[0].BlameRank != 1 {
		t.Fatalf("served ledger %+v", l)
	}

	// Disabled: no recorder configured.
	off := httptest.NewServer(NewServer(ServerOptions{}).Handler())
	defer off.Close()
	if code, _ := scrape(t, off, "/debug/attribution"); code != http.StatusNotFound {
		t.Fatalf("disabled attribution endpoint: %d, want 404", code)
	}
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
