package train

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"segscale/internal/faultinject"
	"segscale/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// chaosCfg is the shared configuration for the recovery tests: two
// ranks, four epochs of three steps each (24 images / 2 ranks / batch
// 4), checkpointing every epoch.
func chaosCfg(dir string) Config {
	cfg := fastCfg()
	cfg.World = 2
	cfg.Epochs = 4
	cfg.CheckpointPath = filepath.Join(dir, "ckpt.segc")
	return cfg
}

// TestRestartEquivalence is the tentpole invariant: a run that loses a
// rank mid-epoch and recovers from the last checkpoint must finish
// bit-identically to a run that never failed — same per-epoch history,
// same final mIOU, and a byte-for-byte identical final checkpoint
// (weights, float64 batch-norm statistics, optimiser velocity, and
// the epoch/step cursor all agree).
//
// The plain run's final numbers are additionally pinned to a committed
// golden (testdata/restart_equivalence.golden, regenerate with
// `go test ./internal/train/ -run TestRestartEquivalence -update`), so
// silent drift in the deterministic training pipeline fails CI too.
func TestRestartEquivalence(t *testing.T) {
	plainDir, chaosDir := t.TempDir(), t.TempDir()

	plain := chaosCfg(plainDir)
	rp, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Restarts != 0 {
		t.Fatalf("unfailed run reported %d restarts", rp.Restarts)
	}

	// Crash rank 1 at global step 7 — epoch 2, one step in, with the
	// epoch-1 checkpoint already on disk — on the first incarnation
	// only.
	chaos := chaosCfg(chaosDir)
	chaos.Chaos = &faultinject.Plan{
		Crashes: []faultinject.Crash{{Rank: 1, Step: 7, Incarnation: 0}},
	}
	chaos.MaxRestarts = 2
	rc, err := Run(chaos)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", rc.Restarts)
	}

	for e := range rp.History {
		if rp.History[e] != rc.History[e] {
			t.Errorf("epoch %d diverged after recovery:\nplain: %+v\nchaos: %+v",
				e, rp.History[e], rc.History[e])
		}
	}
	if rp.FinalMIOU != rc.FinalMIOU || rp.FinalAcc != rc.FinalAcc || rp.FinalFwIOU != rc.FinalFwIOU {
		t.Errorf("final metrics diverged: plain mIOU %v acc %v, chaos mIOU %v acc %v",
			rp.FinalMIOU, rp.FinalAcc, rc.FinalMIOU, rc.FinalAcc)
	}

	// Byte-for-byte: the final checkpoints contain every tensor the
	// run can produce, so equality here is bit-identical recovery.
	a, err := os.ReadFile(plain.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(chaos.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("final checkpoints differ in size: %d vs %d bytes", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("final checkpoints differ at byte %d of %d", i, len(a))
		}
	}

	// Drift gate against the committed golden.
	got := ""
	for _, e := range rp.History {
		got += fmt.Sprintf("epoch %d loss %.9g miou %.9g acc %.9g lr %.9g\n",
			e.Epoch, e.Loss, e.MIOU, e.PixelAcc, e.LR)
	}
	goldenPath := filepath.Join("testdata", "restart_equivalence.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("training history drifted from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestRecoveryFromDoubleCrash schedules a second crash on the second
// incarnation: the run must survive both (two restores) and still
// finish.
func TestRecoveryFromDoubleCrash(t *testing.T) {
	cfg := chaosCfg(t.TempDir())
	cfg.Chaos = &faultinject.Plan{
		Crashes: []faultinject.Crash{
			{Rank: 1, Step: 4, Incarnation: 0},
			{Rank: 0, Step: 10, Incarnation: 1},
		},
	}
	cfg.MaxRestarts = 2
	cfg.Telemetry = telemetry.NewCollector()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 2 {
		t.Fatalf("restarts = %d, want 2", res.Restarts)
	}
	total := 0.0
	for _, m := range cfg.Telemetry.Gather() {
		if m.Name == "recoveries_total" {
			total += m.Value
		}
	}
	if total != 2 {
		t.Fatalf("recoveries_total = %g, want 2", total)
	}
}

// TestCrashCountsAsInjectedFault: a scheduled rank crash is an injected
// fault like a dropped message, so the crashing rank's lane counts it
// on faults_injected_total next to the recovery it causes.
func TestCrashCountsAsInjectedFault(t *testing.T) {
	cfg := chaosCfg(t.TempDir())
	plan, err := faultinject.ParseSpec("crash=1@5")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = plan
	cfg.MaxRestarts = 1
	cfg.Telemetry = telemetry.NewCollector()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	var faults, recoveries float64
	for _, m := range cfg.Telemetry.Gather() {
		switch m.Name {
		case "faults_injected_total":
			faults = m.PerLane["rank1"]
		case "recoveries_total":
			recoveries = m.Value
		}
	}
	if faults < 1 || recoveries != 1 {
		t.Fatalf("rank1 faults_injected_total = %g, recoveries_total = %g; want >= 1 and 1", faults, recoveries)
	}
}

// TestCrashBeforeFirstCheckpointColdRestarts exercises the no-restore
// path: a crash in epoch 0, before anything was saved, falls back to a
// from-scratch restart and still matches the unfailed run.
func TestCrashBeforeFirstCheckpointColdRestarts(t *testing.T) {
	plain := chaosCfg(t.TempDir())
	plain.Epochs = 2
	rp, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}

	chaos := chaosCfg(t.TempDir())
	chaos.Epochs = 2
	chaos.Chaos = &faultinject.Plan{
		Crashes: []faultinject.Crash{{Rank: 0, Step: 1, Incarnation: 0}},
	}
	chaos.MaxRestarts = 1
	rc, err := Run(chaos)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", rc.Restarts)
	}
	if rp.FinalMIOU != rc.FinalMIOU {
		t.Fatalf("cold restart diverged: %v vs %v", rp.FinalMIOU, rc.FinalMIOU)
	}
}

// TestRestartBudgetExhausted: with recovery disabled the injected
// crash surfaces as an error carrying the ErrCrashed sentinel.
func TestRestartBudgetExhausted(t *testing.T) {
	cfg := chaosCfg(t.TempDir())
	cfg.Chaos = &faultinject.Plan{
		Crashes: []faultinject.Crash{{Rank: 1, Step: 7, Incarnation: 0}},
	}
	cfg.MaxRestarts = 0
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("crash with no restart budget did not fail")
	}
	if !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("error lost the crash sentinel: %v", err)
	}
}

// TestTrainingUnderMessageFaults arms recoverable message chaos (drop,
// duplication, delay — no crashes) for a short run: retries and
// deduplication must make the result identical to a fault-free run,
// because every payload is still delivered exactly once in order.
func TestTrainingUnderMessageFaults(t *testing.T) {
	plain := chaosCfg(t.TempDir())
	plain.Epochs = 2
	rp, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}

	chaos := chaosCfg(t.TempDir())
	chaos.Epochs = 2
	chaos.Chaos = &faultinject.Plan{
		Seed:        7,
		DropRate:    0.02,
		DupRate:     0.02,
		DelayRate:   0.03,
		MaxAttempts: 8,
	}
	rc, err := Run(chaos)
	if err != nil {
		t.Fatal(err)
	}
	if rc.Restarts != 0 {
		t.Fatalf("message faults should be absorbed without restarts, got %d", rc.Restarts)
	}
	if rp.FinalMIOU != rc.FinalMIOU {
		t.Fatalf("message chaos changed numerics: %v vs %v", rp.FinalMIOU, rc.FinalMIOU)
	}
	for e := range rp.History {
		if rp.History[e] != rc.History[e] {
			t.Fatalf("epoch %d diverged under message chaos", e)
		}
	}
}

// TestValidationRejectsBadChaos covers the new config knobs.
func TestValidationRejectsBadChaos(t *testing.T) {
	cfg := fastCfg()
	cfg.MaxRestarts = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative MaxRestarts accepted")
	}
	cfg = fastCfg()
	cfg.Chaos = &faultinject.Plan{DropRate: 2}
	if _, err := Run(cfg); err == nil {
		t.Error("invalid chaos plan accepted")
	}
}
