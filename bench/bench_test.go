package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"segscale/pkg/summitseg"
)

// benchmarkFile mirrors the root BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the declarations in metrics.go / workloads.go
// must say the same thing, name for name.
func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	if bf.RunSeconds != nominalUnitSeconds {
		t.Errorf("run_seconds = %d, but one unit of work is sized for %d s", bf.RunSeconds, nominalUnitSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why longer than 200", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d implemented", len(bf.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated name %q", m.Name)
		}
		seen[m.Name] = true
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d implemented", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or repeated name %q", m.Name)
		}
		seen[m.Name] = true
	}
}

// The tail helper picks the highest percentile that still has ten
// samples beyond it: p90 for every train workload's step count.
func TestTailQuantilePicksHighestSupportedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0.5}, {99, 0.5}, {100, 0.90}, {256, 0.90}, {640, 0.90}, {999, 0.90}, {1000, 0.99}, {10000, 0.999}} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, q := tailQuantile(xs)
		if q != c.want {
			t.Errorf("n=%d: picked p%g, want p%g", c.n, 100*q, 100*c.want)
		}
		if want := quantile(xs, c.want); v != want {
			t.Errorf("n=%d: value %g, want %g", c.n, v, want)
		}
	}
	// train.step_ms_p90 carries the percentile in its name: every train
	// workload's within-epoch gap count must select it.
	for _, w := range workloads {
		if !w.isTrain() {
			continue
		}
		cfg, err := w.config(variantFull, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		gaps := cfg.Epochs * (stepsPerEpoch(cfg) - 1)
		if _, q := tailQuantile(make([]float64, gaps)); q != 0.90 {
			t.Errorf("%s: %d gaps select p%g, but the metric is named p90", w.name, gaps, 100*q)
		}
	}
}

// tinyWorkload exercises every train-side layer in a fraction of a
// second: two ranks, binary16 wire, SyncBN, a checkpoint.
func tinyWorkload(dir string) *workload {
	return &workload{
		name: "tiny", procs: 2, world: 2, units: 1,
		build: func(seed int64, _ string) (summitseg.TrainConfig, error) {
			cfg := summitseg.DefaultTraining()
			cfg.World, cfg.TrainSize, cfg.Epochs, cfg.BatchPerRank = 2, 16, 2, 2
			cfg.Model.InputSize, cfg.Model.Width = 8, 8
			cfg.Horovod.FusionThreshold = 8 << 10
			cfg.CheckpointPath = filepath.Join(dir, "tiny.segc")
			cfg.Seed, cfg.Model.Seed = seed, seed
			summitseg.EnableMixedPrecision(&cfg, 0)
			return cfg, nil
		},
	}
}

// testRepeats keeps every count at two: a fraction of the time, and
// whatever only goes wrong where rounds or sweeps join still does.
var testRepeats = repeats{rounds: 2, sweeps: 2, heavy: 2, light: 2, micro: 2}

// runTiny drives the tiny workload through the same code the children
// run: the untraced metrics, then the traced ones.
func runTiny(t *testing.T, seed int64) *result {
	t.Helper()
	w := tinyWorkload(t.TempDir())
	cfg, err := w.config(variantFull, seed, "")
	if err != nil {
		t.Fatal(err)
	}
	res := newResult(w.name)
	run := runTrain(cfg, time.Now(), nil)
	run.addTrainMetrics(w, res)
	res.set("peak_rss_mb", 1)
	if err := traceTrain(w, options{seed: seed, spans: true}, testRepeats, res); err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("tiny workload failed its checks: %+v", res.Checks)
	}
	return res
}

// tinySeed1 is runTiny at seed 1, run once for the tests that only read
// the result.
var tinySeed1 *result

func tinyOnce(t *testing.T) *result {
	t.Helper()
	if tinySeed1 == nil {
		tinySeed1 = runTiny(t, 1)
	}
	return tinySeed1
}

// Every declared metric is produced by some workload kind, nothing
// undeclared is produced, and the contract object carries exactly the
// declared names.
func TestOutputCarriesDeclaredMetricsOnly(t *testing.T) {
	train := tinyOnce(t)
	sim := newResult("sim_sweep")
	if err := childSim(options{seed: 1}, 2, time.Now(), sim); err != nil {
		t.Fatal(err)
	}
	if err := traceSim(options{seed: 1}, testRepeats, sim); err != nil {
		t.Fatal(err)
	}
	if !sim.correct() {
		t.Fatalf("sim failed its checks: %+v", sim.Checks)
	}

	declared := defsByName(append(append([]metricDef(nil), endToEnd...), perLayer...))
	produced := map[string]bool{}
	for _, r := range []*result{train, sim} {
		for name := range r.Metrics {
			if _, ok := declared[name]; !ok {
				t.Errorf("%s produced undeclared metric %q", r.Workload, name)
			}
			produced[name] = true
		}
	}
	for name := range declared {
		// The health plane's cost is only measured on a converging
		// two-rank workload, which no sub-second config is.
		if !produced[name] && name != "modelhealth.overhead_ratio" {
			t.Errorf("declared metric %q is produced by no workload", name)
		}
	}

	bf := readBenchmarkFile(t)
	for _, r := range []*result{train, sim} {
		c := r.contract(endToEnd)
		if len(c.Metrics) != len(bf.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics in the output, %d declared", r.Workload, len(c.Metrics), len(bf.EndToEnd))
		}
		for _, m := range bf.EndToEnd {
			if got, ok := c.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value == 0 {
				t.Errorf("%s: end-to-end %s = %+v (present %v); want a non-zero value in %s", r.Workload, m.Name, got, ok, m.Unit)
			}
		}
		c = r.contract(perLayer)
		if len(c.Metrics) != len(bf.PerLayer) {
			t.Errorf("%s: %d per-layer metrics in the output, %d declared", r.Workload, len(c.Metrics), len(bf.PerLayer))
		}
		if c.Attempted < 1 || c.Failed != 0 || !c.Correct {
			t.Errorf("%s: contract %+v", r.Workload, c)
		}
	}
}

// Within every driven step the layer spans account for the step span:
// self times add up to it exactly, and what the step keeps for itself
// (arena reset, dropout reseed, span bookkeeping) is under 5 %. The run
// has two rounds, and the parents are checked against the clock: a
// parent index that points into another round's spans would leave
// forward and backward holding the SyncBN time they are reported
// without.
func TestSpanSelfTimesSumToStep(t *testing.T) {
	res := tinyOnce(t)
	var rank0 []span
	for _, s := range res.Spans {
		if s.Lane == "rank0" {
			rank0 = append(rank0, s)
		}
	}
	for i, s := range rank0 {
		if s.Parent < 0 {
			continue
		}
		if p := rank0[s.Parent]; s.Parent >= i || p.StartNS > s.StartNS || s.EndNS > p.EndNS || p.Step != s.Step {
			t.Fatalf("span %d (%s, step %d, %d-%d ns) names parent %d (%s, step %d, %d-%d ns), which does not contain it",
				i, s.Name, s.Step, s.StartNS, s.EndNS, s.Parent, p.Name, p.Step, p.StartNS, p.EndNS)
		}
	}

	self := selfMS(rank0)
	stepDur, stepSelf, layerSelf := 0.0, 0.0, 0.0
	steps := map[int]bool{}
	var fwdSelf []float64
	for i, s := range rank0 {
		switch {
		case s.Name == "train.step":
			steps[s.Step] = true
			stepDur += s.durMS()
			stepSelf += self[i]
		case s.Parent >= 0 && spanRoot(rank0, i) == "train.step":
			layerSelf += self[i]
		}
		if s.Name != "deeplab.forward" {
			continue
		}
		// The SyncBN reductions this forward pass waited for, found by the
		// clock, not by parent index.
		syncMS, syncs := 0.0, 0
		for _, c := range rank0 {
			if c.Name == "horovod.syncbn" && c.StartNS >= s.StartNS && c.EndNS <= s.EndNS {
				syncMS += c.durMS()
				syncs++
			}
		}
		if syncs == 0 {
			t.Fatalf("forward of step %d holds no SyncBN span", s.Step)
		}
		if diff := self[i] + syncMS - s.durMS(); diff > 1e-6 || diff < -1e-6 {
			t.Errorf("step %d: forward self %.6f ms + %d SyncBN spans %.6f ms != forward total %.6f ms", s.Step, self[i], syncs, syncMS, s.durMS())
		}
		fwdSelf = append(fwdSelf, self[i])
	}
	if want := testRepeats.rounds * shortSteps; len(steps) != want {
		t.Fatalf("%d distinct step ids recorded, want %d (two rounds)", len(steps), want)
	}
	if got, want := res.Metrics["deeplab.forward_ms"], median(fwdSelf); got != want {
		t.Errorf("deeplab.forward_ms = %v, but the median forward self time over both rounds is %v", got, want)
	}
	if diff := stepDur - (stepSelf + layerSelf); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("self times sum to %.6f ms, step spans to %.6f ms", stepSelf+layerSelf, stepDur)
	}
	if stepSelf > 0.05*stepDur {
		t.Errorf("steps keep %.3f of %.3f ms for themselves (> 5 %%): a layer call has no span", stepSelf, stepDur)
	}
}

// spanRoot names the root span i descends from.
func spanRoot(spans []span, i int) string {
	for spans[i].Parent >= 0 {
		i = spans[i].Parent
	}
	return spans[i].Name
}

// Same seed, same trajectory and same counts: the rows a later change
// may compare exactly.
func TestSameSeedRepeatsExactly(t *testing.T) {
	a, b := tinyOnce(t), runTiny(t, 1)
	for _, name := range []string{
		"train.final_loss", "train.final_miou", "train.epochs_to_target", "train.overflow_steps",
		"horovod.fused_buffers_per_step", "horovod.wire_bytes_per_step",
		"transport.sends_per_step", "transport.sent_bytes_per_step", "transport.retries_total",
		"nn.syncbn_calls_per_step", "checkpoint.file_bytes",
	} {
		if a.Metrics[name] != b.Metrics[name] {
			t.Errorf("%s: %v then %v at one seed", name, a.Metrics[name], b.Metrics[name])
		}
	}
	if c := runTiny(t, 8); c.Metrics["train.final_loss"] == a.Metrics["train.final_loss"] {
		t.Errorf("seeds 1 and 8 gave the same final loss %v: the seed does not reach the run", c.Metrics["train.final_loss"])
	}
}
