package train

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"segscale/internal/modelhealth"
	"segscale/internal/telemetry"
)

// healthCfg sizes the health-golden run: two ranks, two epochs of two
// two-image steps each — small enough for a committed ledger, big
// enough to exercise multi-rank multi-step collection.
func healthCfg() Config {
	cfg := fastCfg()
	cfg.World = 2
	cfg.Epochs = 2
	cfg.TrainSize = 8
	cfg.BatchPerRank = 2
	return cfg
}

// TestHealthLedgerGolden is the determinism gate: a same-seed rerun
// produces a byte-identical health ledger, pinned to a committed
// golden (testdata/health_ledger.golden, regenerate with
// `go test ./internal/train/ -run TestHealthLedgerGolden -update`).
// A healthy run additionally stays sentinel-silent.
func TestHealthLedgerGolden(t *testing.T) {
	runOnce := func() (*modelhealth.Plane, []byte) {
		cfg := healthCfg()
		plane := modelhealth.New(modelhealth.Config{})
		cfg.Health = plane
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := plane.WriteLedger(&buf); err != nil {
			t.Fatal(err)
		}
		return plane, buf.Bytes()
	}
	plane, a := runOnce()
	if alerts := plane.Alerts(); len(alerts) != 0 {
		t.Fatalf("healthy run tripped %d sentinel(s): %+v", len(alerts), alerts[0])
	}
	_, b := runOnce()
	if !bytes.Equal(a, b) {
		t.Fatal("health ledger not byte-identical across same-seed reruns")
	}

	l, err := modelhealth.ReadLedger(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Header.World != 2 {
		t.Fatalf("ledger world %d, want 2", l.Header.World)
	}
	grads, acts := 0, 0
	for _, r := range l.Rows {
		switch r.Kind {
		case "grad":
			grads++
		case "act":
			acts++
		}
	}
	if grads == 0 || acts == 0 {
		t.Fatalf("ledger missing a view: %d grad rows, %d act rows", grads, acts)
	}

	goldenPath := filepath.Join("testdata", "health_ledger.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, a, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, want) {
		t.Errorf("health ledger drifted from golden (regenerate with -update if intended): got %d bytes, want %d", len(a), len(want))
	}
}

// TestHealthIsPureObserver: enabling the health plane must not perturb
// the training computation — the per-epoch history matches a plane-
// less run bit for bit (the restart/elastic/fp16 goldens rely on it).
func TestHealthIsPureObserver(t *testing.T) {
	plain := healthCfg()
	rp, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	observed := healthCfg()
	observed.Health = modelhealth.New(modelhealth.Config{})
	ro, err := Run(observed)
	if err != nil {
		t.Fatal(err)
	}
	for e := range rp.History {
		if rp.History[e] != ro.History[e] {
			t.Errorf("epoch %d: health plane perturbed training:\nplain:    %+v\nobserved: %+v",
				e, rp.History[e], ro.History[e])
		}
	}
	if rp.FinalMIOU != ro.FinalMIOU {
		t.Errorf("final mIOU diverged: %v vs %v", rp.FinalMIOU, ro.FinalMIOU)
	}
}

// TestHealthDivergenceSentinel injects divergence — a blown-up
// learning rate — and asserts the sentinel trips with full (layer,
// rank, step, incarnation) provenance while the flight recorder's
// dumped window names the HEALTH marks.
func TestHealthDivergenceSentinel(t *testing.T) {
	cfg := healthCfg()
	// Large enough that the second step's weights overflow float32 and
	// poison activations and gradients with Inf/NaN — batch norm keeps
	// merely-large weights finite, so a mild blow-up (1e6) trips only
	// the update-ratio sentinel.
	cfg.BaseLR = 1e20
	cfg.Telemetry = telemetry.NewCollector()
	flight := cfg.Telemetry.EnableFlight(0)
	plane := modelhealth.New(modelhealth.Config{})
	cfg.Health = plane
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	alerts := plane.Alerts()
	if len(alerts) == 0 {
		t.Fatal("blown-up LR tripped no sentinel")
	}
	kinds := map[string]bool{}
	for _, a := range alerts {
		kinds[a.Kind] = true
		if a.Layer == "" {
			t.Fatalf("alert without layer provenance: %+v", a)
		}
		if a.Rank < 0 || a.Rank >= cfg.World {
			t.Fatalf("alert rank %d outside world %d", a.Rank, cfg.World)
		}
		if a.Step < 0 || a.Inc != 0 {
			t.Fatalf("alert step/incarnation provenance: %+v", a)
		}
		if !strings.Contains(a.Msg, a.Layer) {
			t.Fatalf("alert message %q does not name layer %q", a.Msg, a.Layer)
		}
	}
	// The blown LR first trips the update-ratio sentinel, then the
	// exploded weights poison activations and gradients.
	if !kinds[modelhealth.AlertUpdateRatio] {
		t.Errorf("update_ratio sentinel silent; tripped kinds: %v", kinds)
	}
	if !kinds[modelhealth.AlertNonFiniteGrad] || !kinds[modelhealth.AlertNonFiniteAct] {
		t.Errorf("non-finite sentinels silent; tripped kinds: %v", kinds)
	}

	// The trips are in the flight window as zero-duration HEALTH marks,
	// so a post-mortem dump names what fired.
	var buf bytes.Buffer
	if err := flight.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	trace := buf.String()
	if !strings.Contains(trace, "HEALTH") {
		t.Error("dumped flight trace has no HEALTH marks")
	}
	if !strings.Contains(trace, modelhealth.AlertUpdateRatio) {
		t.Error("dumped flight trace does not name the update_ratio sentinel")
	}

	// The ledger of a diverged run still serialises and validates (no
	// NaN reaches a JSON float field).
	var ledger bytes.Buffer
	if err := plane.WriteLedger(&ledger); err != nil {
		t.Fatal(err)
	}
	l, err := modelhealth.ReadLedger(bytes.NewReader(ledger.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
}

// ampMarks runs a short mixed-precision training with an oversized
// flight window and returns the dumped Chrome trace.
func ampMarks(t *testing.T, lossScale float64, epochs int) string {
	t.Helper()
	cfg := fastCfg()
	cfg.World = 2
	cfg.MixedPrecision = true
	cfg.LossScale = lossScale
	cfg.Epochs = epochs
	cfg.Telemetry = telemetry.NewCollector()
	// A full run emits ~200 span events per step and rank; the default
	// 4096-event ring would evict early-run marks, so size the window
	// to hold the whole run.
	flight := cfg.Telemetry.EnableFlight(1 << 16)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := flight.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestLossScaleTransitionMarks forces the loss scaler through backoff
// (a deliberately enormous initial scale overflows the binary16 wire
// until it has halved into range) and, in a second run, through regrow
// (a small initial scale plus a growth-interval of good steps),
// asserting both transitions land in the dumped flight trace as
// zero-duration AMP marks.
func TestLossScaleTransitionMarks(t *testing.T) {
	if trace := ampMarks(t, 1<<24, 3); !strings.Contains(trace, "loss_scale_backoff") {
		t.Error("flight trace of an overflowing run has no loss_scale_backoff mark")
	}
	// 20 epochs × 3 steps = 60 good steps, clearing growthInterval 50.
	if trace := ampMarks(t, 1<<4, 20); !strings.Contains(trace, "loss_scale_regrow") {
		t.Error("flight trace of a regrowing run has no loss_scale_regrow mark")
	}
}
