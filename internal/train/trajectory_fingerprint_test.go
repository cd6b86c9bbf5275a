package train

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"segscale/internal/checkpoint"
	"segscale/internal/deeplab"
	"segscale/internal/faultinject"
	"segscale/internal/modelhealth"
	"segscale/internal/telemetry"
)

// The trajectory fingerprint is the trainer's feature matrix, pinned
// bit for bit: {fp32, fp16} × {sgd, lars} × every way a run can reach
// its end — no failure, crash → checkpoint restart, crash before the
// first checkpoint → cold restart, ResumeFrom, crash → elastic shrink,
// crash → shrink → regrow. One golden line per cell hashes the
// per-epoch history, the final per-class and frequency-weighted IOU,
// the transition counters, and the parameters, float64 batch-norm
// statistics and optimiser velocity decoded from the final checkpoint
// (decoded, so a new checkpoint section does not move the hash).
// Fault-free cells also hash a telemetry digest — each lane's span
// names in order plus every counter; a crash tears the world at a
// scheduling-dependent point, so crash cells hash results only.
// Every cell is then re-run with the health plane attached next to
// the collector and must reproduce its line. Four more cells cross
// gradient accumulation with recovery: {fp32, fp16} sgd × {restart,
// shrink}, two passes a step on epochs of three steps.
//
// Regenerate (only when a change is meant to move trajectories) with
// `go test ./internal/train/ -run TestTrajectoryFingerprint -update`.

// fingerprintScenario is one way a run reaches its end.
type fingerprintScenario struct {
	name string
	// faulted marks the cells whose telemetry is not hashed.
	faulted bool
	apply   func(cfg *Config, dir string)
}

var fingerprintScenarios = []fingerprintScenario{
	{name: "none", apply: func(*Config, string) {}},
	{name: "restart", faulted: true, apply: func(cfg *Config, _ string) {
		// Rank 1 dies one step into epoch 1, the epoch-0 checkpoint on disk.
		cfg.Chaos = &faultinject.Plan{Crashes: []faultinject.Crash{{Rank: 1, Step: 3}}}
		cfg.MaxRestarts = 2
	}},
	{name: "cold", faulted: true, apply: func(cfg *Config, _ string) {
		// Rank 0 dies in epoch 0, before anything was saved.
		cfg.Chaos = &faultinject.Plan{Crashes: []faultinject.Crash{{Rank: 0, Step: 1}}}
		cfg.MaxRestarts = 1
	}},
	{name: "resume", apply: func(cfg *Config, dir string) {
		// Warm start from the same precision/optimiser's "none" cell.
		cfg.ResumeFrom = filepath.Join(dir, "none.segc")
	}},
	{name: "shrink", faulted: true, apply: func(cfg *Config, _ string) {
		cfg.Elastic = true
		cfg.Chaos = &faultinject.Plan{Crashes: []faultinject.Crash{{Rank: 1, Step: 3}}}
		cfg.MaxRestarts = 2
	}},
	{name: "regrow", faulted: true, apply: func(cfg *Config, _ string) {
		cfg.Elastic = true
		cfg.Chaos = &faultinject.Plan{Crashes: []faultinject.Crash{{Rank: 1, Step: 3}}}
		cfg.MaxRestarts = 2
		cfg.RejoinEpoch = 2
	}},
}

// fingerprintCfg is one cell's configuration: two ranks, three epochs
// of two steps (16 images / 2 ranks / batch 4), a checkpoint every
// epoch in dir/<scenario>.segc.
func fingerprintCfg(fp16 bool, opt string, sc fingerprintScenario, dir string) Config {
	cfg := fastCfg()
	cfg.World = 2
	cfg.TrainSize = 16
	cfg.EvalSize = 4
	cfg.Epochs = 3
	cfg.MixedPrecision = fp16
	cfg.Optimizer = opt
	cfg.CheckpointPath = filepath.Join(dir, sc.name+".segc")
	sc.apply(&cfg, dir)
	return cfg
}

func TestTrajectoryFingerprint(t *testing.T) {
	var lines []string
	for _, fp16 := range []bool{false, true} {
		wire := "fp32"
		if fp16 {
			wire = "fp16"
		}
		for _, opt := range []string{"sgd", "lars"} {
			dir := t.TempDir()
			for _, sc := range fingerprintScenarios {
				cfg := fingerprintCfg(fp16, opt, sc, dir)
				line := fmt.Sprintf("%s %s %-7s %s", wire, opt, sc.name, fingerprintCell(t, cfg, sc.faulted, false))
				if again := fmt.Sprintf("%s %s %-7s %s", wire, opt, sc.name, fingerprintCell(t, cfg, sc.faulted, true)); again != line {
					t.Errorf("health plane moved the trajectory:\nbare:   %s\nhealth: %s", line, again)
				}
				lines = append(lines, line)
			}
		}
	}
	lines = append(lines, accumLines(t)...)
	got := strings.Join(lines, "\n") + "\n"

	goldenPath := filepath.Join("testdata", "trajectory_fingerprint.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("training trajectories drifted from golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// accumCfg turns a fingerprint cell into an accumulation cell: two
// backward passes a step over 20 images, so 3 steps an epoch at world 2
// and 5 after a shrink to world 1 — neither divisible by two — and a
// crash one step into epoch 1, with a pass accumulated but not applied.
func accumCfg(cfg Config) Config {
	cfg.TrainSize = 20
	cfg.Horovod.BackwardPassesPerStep = 2
	if cfg.Chaos != nil {
		cfg.Chaos.Crashes[0].Step = 4
	}
	return cfg
}

// accumLines fingerprints the accumulation cells. An epoch boundary is
// an update boundary, so the restart cell, resumed from its epoch-0
// checkpoint, must end with exactly its unfailed twin's parameters.
func accumLines(t *testing.T) (lines []string) {
	byName := map[string]fingerprintScenario{}
	for _, sc := range fingerprintScenarios {
		byName[sc.name] = sc
	}
	for _, fp16 := range []bool{false, true} {
		wire := "fp32"
		if fp16 {
			wire = "fp16"
		}
		dir := t.TempDir()
		twin := accumCfg(fingerprintCfg(fp16, "sgd", byName["none"], dir))
		if _, err := Run(twin); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"restart", "shrink"} {
			sc := byName[name]
			cfg := accumCfg(fingerprintCfg(fp16, "sgd", sc, dir))
			line := fmt.Sprintf("%s sgd accum2 %-7s %s", wire, name, fingerprintCell(t, cfg, sc.faulted, false))
			if again := fmt.Sprintf("%s sgd accum2 %-7s %s", wire, name, fingerprintCell(t, cfg, sc.faulted, true)); again != line {
				t.Errorf("health plane moved the trajectory:\nbare:   %s\nhealth: %s", line, again)
			}
			lines = append(lines, line)
			if name == "restart" && !slices.EqualFunc(finalParams(t, cfg), finalParams(t, twin), slices.Equal[[]float32]) {
				t.Errorf("%s accumulation: restarted run's final parameters differ from the unfailed run's", wire)
			}
		}
	}
	return lines
}

// finalParams decodes the parameters of a run's final checkpoint.
func finalParams(t *testing.T, cfg Config) [][]float32 {
	t.Helper()
	net := deeplab.New(cfg.Model)
	st := checkpoint.State{Params: net.Params(), BNs: net.BatchNorms()}
	if err := checkpoint.LoadStateFile(cfg.CheckpointPath, &st); err != nil {
		t.Fatal(err)
	}
	out := make([][]float32, len(st.Params))
	for i, p := range st.Params {
		out[i] = p.W.Data
	}
	return out
}

// fingerprintCell runs one cell with a telemetry collector (and the
// health plane when withHealth) and renders its hashes.
func fingerprintCell(t *testing.T, cfg Config, faulted, withHealth bool) string {
	t.Helper()
	cfg.Telemetry = telemetry.NewCollector()
	if withHealth {
		cfg.Health = modelhealth.New(modelhealth.Config{})
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := "results=" + resultHash(t, cfg, res)
	if !faulted {
		out += " telemetry=" + telemetryDigest(cfg.Telemetry)
	}
	return out
}

// resultHash hashes the run's numbers and its decoded final checkpoint.
func resultHash(t *testing.T, cfg Config, res *Result) string {
	t.Helper()
	h := sha256.New()
	for _, e := range res.History {
		putInts(h, e.Epoch, e.World)
		putFloats(h, e.Loss, e.MIOU, e.PixelAcc, e.LR)
	}
	putFloats(h, res.FinalPerClassIOU...)
	putFloats(h, res.FinalFwIOU)
	putInts(h, res.Restarts, res.Shrinks, res.Regrows)

	net := deeplab.New(cfg.Model)
	st := checkpoint.State{Params: net.Params(), BNs: net.BatchNorms()}
	if err := checkpoint.LoadStateFile(cfg.CheckpointPath, &st); err != nil {
		t.Fatal(err)
	}
	for _, p := range st.Params {
		putFloat32s(h, p.W.Data)
	}
	for _, bn := range st.BNs {
		putFloats(h, bn.RunningMean...)
		putFloats(h, bn.RunningVar...)
	}
	putInts(h, len(st.Velocity))
	for _, v := range st.Velocity {
		putFloat32s(h, v)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// telemetryDigest hashes every lane's span phases and names in
// recording order, lanes sorted by name (probes attach in goroutine
// start order), then every counter per lane. The health plane's own
// series are left out: they exist only when it is attached.
func telemetryDigest(c *telemetry.Collector) string {
	h := sha256.New()
	spans := map[string][]string{}
	for _, p := range c.Probes() {
		for _, sp := range p.Tracer().Spans() {
			spans[sp.Lane] = append(spans[sp.Lane], sp.Phase+"|"+sp.Name)
		}
	}
	for _, lane := range sortedKeys(spans) {
		fmt.Fprintf(h, "%s\n%s\n", lane, strings.Join(spans[lane], "\n"))
	}
	for _, m := range c.Gather() {
		if m.Kind != "counter" || strings.HasPrefix(m.Name, "model_health_") {
			continue
		}
		for _, l := range sortedKeys(m.PerLane) {
			fmt.Fprintf(h, "%s|%s|%g\n", m.Name, l, m.PerLane[l])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func putInts(h hash.Hash, vs ...int) {
	for _, v := range vs {
		_ = binary.Write(h, binary.LittleEndian, int64(v))
	}
}

func putFloats(h hash.Hash, vs ...float64) {
	for _, v := range vs {
		_ = binary.Write(h, binary.LittleEndian, math.Float64bits(v))
	}
}

func putFloat32s(h hash.Hash, vs []float32) {
	for _, v := range vs {
		_ = binary.Write(h, binary.LittleEndian, math.Float32bits(v))
	}
}
