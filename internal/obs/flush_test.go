package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"segscale/internal/telemetry"
	"segscale/internal/timeline"
)

func TestFlushPrometheusAtomic(t *testing.T) {
	col := telemetry.NewCollector()
	col.NewProbe("rank0", telemetry.NewStepClock()).Counter("train_steps_total").Inc()

	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.prom")
	for i := 0; i < 3; i++ { // repeated flushes replace, never append
		if err := FlushPrometheus(col, path); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "train_steps_total") {
		t.Fatalf("flushed metrics missing counter:\n%s", data)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestPromFlusherPeriodicAndFinal(t *testing.T) {
	col := telemetry.NewCollector()
	counter := col.NewProbe("rank0", telemetry.NewStepClock()).Counter("train_steps_total")
	path := filepath.Join(t.TempDir(), "metrics.prom")
	fl := NewPromFlusher(col, path, 2)

	counter.Inc()
	fl.ObserveStep("rank0", 0, 1, 0)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("flushed before the period elapsed")
	}
	fl.ObserveStep("rank0", 1, 1, 0)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("no flush after period: %v", err)
	}

	counter.Inc()
	if err := fl.Flush(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	if !strings.Contains(string(data), "train_steps_total 2") {
		t.Fatalf("final flush stale:\n%s", data)
	}

	var nilFl *PromFlusher
	nilFl.ObserveStep("x", 0, 1, 0) // nil-safe
	if err := nilFl.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFlightTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flight.json")
	if err := WriteFlightTrace(nil, path); err != nil {
		t.Fatalf("nil recorder: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("nil recorder wrote a file")
	}

	f := telemetry.NewFlightRecorder(8)
	f.Record(timeline.Event{Lane: "rank0", Phase: "STEP", Name: "s0", Start: 1, End: 2})
	if err := WriteFlightTrace(f, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil || len(events) != 2 { // lane name + span
		t.Fatalf("trace dump wrong (%v):\n%s", err, data)
	}
}

func TestWriteManifest(t *testing.T) {
	dir := t.TempDir()
	if _, err := WriteManifest(dir, Manifest{}); err == nil {
		t.Fatal("manifest without a tool name must fail")
	}

	m := Manifest{
		Tool: "dlv3-train", GitRev: "abc123", Seed: 7,
		Config:    map[string]any{"world": 4},
		ChaosSpec: "seed=7;crash=1@40", AnchorImgPerSec: 6.7,
		FinalEfficiency: 0.95, Restarts: 1,
		Alerts: []Alert{{Kind: "restart", Msg: "incarnation 1"}},
	}
	path, err := WriteManifest(filepath.Join(dir, "runs"), m) // dir is created
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "dlv3-train-seed7.json" {
		t.Fatalf("manifest name = %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Tool != m.Tool || got.Seed != 7 || got.Restarts != 1 ||
		got.ChaosSpec != m.ChaosSpec || len(got.Alerts) != 1 {
		t.Fatalf("round-trip mismatch: %+v", got)
	}

	// Alerts must serialise as [] not null — downstream tooling indexes
	// the field unconditionally.
	p2, err := WriteManifest(dir, Manifest{Tool: "summit-sim", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(p2)
	if !strings.Contains(string(raw), `"alerts": []`) {
		t.Fatalf("nil alerts serialised as null:\n%s", raw)
	}
	// A run without a baseline writes no efficiency fields at all.
	for _, key := range []string{`"slo"`, `"anchor_img_per_sec"`, `"final_efficiency"`} {
		if strings.Contains(string(raw), key) {
			t.Errorf("baseline-free manifest carries %s:\n%s", key, raw)
		}
	}
}
