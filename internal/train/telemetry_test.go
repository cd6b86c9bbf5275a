package train

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"segscale/internal/telemetry"
	"segscale/internal/timeline"
)

// TestTelemetryDoesNotChangeResults is the no-op-path contract: a run
// with a collector attached must produce numerically identical
// training results to a run without one — instrumentation may only
// observe, never perturb.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	cfg := fastCfg()
	cfg.World = 2
	cfg.Epochs = 2

	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	instrumented := cfg
	instrumented.Telemetry = telemetry.NewCollector()
	traced, err := Run(instrumented)
	if err != nil {
		t.Fatal(err)
	}

	// Config differs by the collector pointer itself, and
	// FinalPerClassIOU holds NaN for absent classes (NaN != NaN under
	// DeepEqual); compare those separately, everything else
	// byte-for-byte.
	a, b := *bare, *traced
	a.Config.Telemetry = nil
	b.Config.Telemetry = nil
	if len(a.FinalPerClassIOU) != len(b.FinalPerClassIOU) {
		t.Fatalf("per-class IOU lengths differ: %d vs %d",
			len(a.FinalPerClassIOU), len(b.FinalPerClassIOU))
	}
	for k := range a.FinalPerClassIOU {
		x, y := a.FinalPerClassIOU[k], b.FinalPerClassIOU[k]
		if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
			t.Errorf("class %d IOU differs: %g vs %g", k, x, y)
		}
	}
	a.FinalPerClassIOU, b.FinalPerClassIOU = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("telemetry changed the training result:\nbare:   %+v\ntraced: %+v", a, b)
	}
}

// TestTelemetryCapturesTraining checks the instrumented run actually
// recorded what it promises: one lane per rank, step spans, and the
// core counters.
func TestTelemetryCapturesTraining(t *testing.T) {
	cfg := fastCfg()
	cfg.World = 2
	cfg.Epochs = 2
	cfg.Telemetry = telemetry.NewCollector()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}

	// One lane per rank plus the run-level "train" lane that counts
	// recoveries.
	probes := cfg.Telemetry.Probes()
	if len(probes) != cfg.World+1 {
		t.Fatalf("probes = %d, want %d", len(probes), cfg.World+1)
	}

	steps := map[string]int{}
	for _, sp := range cfg.Telemetry.Timeline().Events {
		if sp.Phase == timeline.PhaseStep {
			steps[sp.Lane]++
		}
	}
	wantSteps := cfg.Epochs * (cfg.TrainSize / (cfg.World * cfg.BatchPerRank))
	for _, lane := range []string{"rank0", "rank1"} {
		if steps[lane] != wantSteps {
			t.Errorf("lane %s recorded %d step spans, want %d", lane, steps[lane], wantSteps)
		}
	}

	var sawSteps, sawSends bool
	for _, m := range cfg.Telemetry.Gather() {
		switch m.Name {
		case "train_steps_total":
			sawSteps = true
			if want := float64(cfg.World * wantSteps); m.Value != want {
				t.Errorf("train_steps_total = %g, want %g", m.Value, want)
			}
		case "transport_sends_total":
			sawSends = true
			if m.Value <= 0 {
				t.Errorf("transport_sends_total = %g, want > 0", m.Value)
			}
		}
	}
	if !sawSteps || !sawSends {
		t.Errorf("missing expected metrics (steps=%v sends=%v)", sawSteps, sawSends)
	}
}

// traceRecordDigest pins every span record a fixed-seed, world-2 fp16
// run emits: each lane's records (lane, phase, name, start, end, edge)
// in merged-trace order, then each lane's sequence in the flight ring.
// The step clocks count operations, so the digest holds at any
// GOMAXPROCS. A crash run would not do: the crashed incarnation's last
// events depend on when its peer notices the kill.
const traceRecordDigest = "08445ff9b6b94a4f"

func TestTraceRecordDigest(t *testing.T) {
	cfg := mpCfg()
	cfg.Epochs = 2
	cfg.Telemetry = telemetry.NewCollector()
	flight := cfg.Telemetry.EnableFlight(1 << 16)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if flight.Total() > uint64(flight.Cap()) {
		t.Fatalf("flight ring wrapped: %d events into %d slots", flight.Total(), flight.Cap())
	}
	record := func(lane, phase, name string, start, end float64, edge string) string {
		return strings.Join([]string{lane, phase, name,
			strconv.FormatFloat(start, 'g', -1, 64), strconv.FormatFloat(end, 'g', -1, 64), edge}, "|")
	}
	traced := map[string][]string{}
	for _, sp := range cfg.Telemetry.Timeline().Events {
		traced[sp.Lane] = append(traced[sp.Lane], record(sp.Lane, sp.Phase, sp.Name, sp.Start, sp.End, sp.Edge))
	}
	ring := map[string][]string{}
	for _, ev := range flight.Snapshot() {
		ring[ev.Lane] = append(ring[ev.Lane], record(ev.Lane, ev.Phase, ev.Name, ev.Start, ev.End, ev.Edge))
	}
	if len(traced) != cfg.World || len(ring) != len(traced) {
		t.Fatalf("lanes: trace %d, ring %d, want %d", len(traced), len(ring), cfg.World)
	}
	h := sha256.New()
	for _, lanes := range []map[string][]string{traced, ring} {
		for _, lane := range sortedKeys(lanes) {
			fmt.Fprintf(h, "%s %d\n%s\n", lane, len(lanes[lane]), strings.Join(lanes[lane], "\n"))
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); got != traceRecordDigest {
		t.Errorf("span record digest = %s, want %s", got, traceRecordDigest)
	}
}
