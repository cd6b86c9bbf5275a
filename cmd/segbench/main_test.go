package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastReport runs the full -fast benchmark set once per test binary;
// the harness itself is what is under test, not the timings.
var fastReport *Report

func report(t *testing.T) *Report {
	t.Helper()
	if fastReport == nil {
		fastReport = run(true)
	}
	return fastReport
}

func writeReport(t *testing.T, r *Report) string {
	t.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// clone deep-copies a report so tests can corrupt baselines freely.
func clone(r *Report) *Report {
	out := *r
	out.Benchmarks = map[string]Entry{}
	for k, v := range r.Benchmarks {
		out.Benchmarks[k] = v
	}
	out.Derived = map[string]float64{}
	for k, v := range r.Derived {
		out.Derived[k] = v
	}
	return &out
}

func TestRunFastReportShape(t *testing.T) {
	r := report(t)
	if r.Schema != schemaVersion {
		t.Errorf("schema %d, want %d", r.Schema, schemaVersion)
	}
	if !r.Fast {
		t.Error("fast flag not recorded")
	}
	for _, name := range []string{
		"matmul_tiled_256x2304x1089", "matmul_ref_256x2304x1089",
		"conv2d_fwd_ws", "conv2d_bwd_ws", "train_step_rank0", "perfsim_132gpu",
		"conv2d_dw_fwd_ws", "conv2d_dw_bwd_ws", "conv2d_pw_fwd_ws", "conv2d_pw_bwd_ws",
		"perfsim_1056gpu_hier", "train_step_rank0_mp4",
		"fp16_encode_4m", "fp16_decode_4m", "fp16_addinto_4m",
	} {
		e, ok := r.Benchmarks[name]
		if !ok {
			t.Errorf("benchmark %q missing", name)
			continue
		}
		if e.NsPerOp <= 0 {
			t.Errorf("%s: ns/op %v", name, e.NsPerOp)
		}
	}
	// Every entry records the parallelism it pinned, whatever the host
	// offers: serial entries 1, the _mp4 variants mpProcs.
	for name, e := range r.Benchmarks {
		want := 1
		if strings.HasSuffix(name, "_mp4") {
			want = mpProcs
		}
		if e.GOMAXPROCS != want {
			t.Errorf("%s: gomaxprocs %d, want pinned %d", name, e.GOMAXPROCS, want)
		}
	}
	if r.Benchmarks["train_step_rank0"].ImgPerSec <= 0 ||
		r.Benchmarks["perfsim_132gpu"].ImgPerSec <= 0 {
		t.Error("img/s readings missing")
	}
	if hier := r.Benchmarks["perfsim_1056gpu_hier"].ImgPerSec; hier <= r.Benchmarks["perfsim_132gpu"].ImgPerSec {
		t.Errorf("1056-rank hier throughput %.1f img/s not above 132-GPU flat %.1f", hier, r.Benchmarks["perfsim_132gpu"].ImgPerSec)
	}
	if r.Derived["matmul_speedup_vs_ref"] <= 0 {
		t.Error("derived speedup missing")
	}
}

func TestCheckAgainstSelfPasses(t *testing.T) {
	r := report(t)
	if err := check(r, writeReport(t, r)); err != nil {
		t.Fatalf("self-check: %v", err)
	}
}

func TestCheckFlagsAllocRegression(t *testing.T) {
	r := report(t)
	base := clone(r)
	e := base.Benchmarks["train_step_rank0"]
	e.AllocsPerOp -= allocSlack + 1 // current now exceeds baseline + slack
	base.Benchmarks["train_step_rank0"] = e
	if err := check(r, writeReport(t, base)); err == nil {
		t.Fatal("allocation regression not flagged")
	}
}

func TestCheckRefusesSchemaMismatch(t *testing.T) {
	r := report(t)
	base := clone(r)
	base.Schema = schemaVersion - 1
	if err := check(r, writeReport(t, base)); err == nil {
		t.Fatal("schema mismatch not refused")
	}
}

func TestCheckRefusesKeyDrift(t *testing.T) {
	r := report(t)
	extra := clone(r)
	extra.Benchmarks["vanished_benchmark"] = Entry{GOMAXPROCS: 1}
	if err := check(r, writeReport(t, extra)); err == nil {
		t.Fatal("baseline-only benchmark not refused")
	}
	missing := clone(r)
	delete(missing.Benchmarks, "conv2d_fwd_ws")
	if err := check(r, writeReport(t, missing)); err == nil {
		t.Fatal("unbaselined benchmark not refused")
	}
}

func TestCheckSkipsGOMAXPROCSMismatch(t *testing.T) {
	r := report(t)
	base := clone(r)
	for name, e := range base.Benchmarks {
		e.GOMAXPROCS++ // a different machine shape
		e.AllocsPerOp = 0
		base.Benchmarks[name] = e
	}
	// Every entry would fail the allocation gate if compared; all must
	// be skipped instead.
	if err := check(r, writeReport(t, base)); err != nil {
		t.Fatalf("mismatched-GOMAXPROCS baseline compared anyway: %v", err)
	}
}

func TestCheckMissingAndBadBaseline(t *testing.T) {
	r := report(t)
	if err := check(r, filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing baseline not an error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := check(r, bad); err == nil {
		t.Fatal("unparseable baseline not an error")
	}
}
