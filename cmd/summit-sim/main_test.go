package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// row returns the fields of the table row for gpus in a run's output.
func row(t *testing.T, out string, gpus int) []string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 5 && f[0] == fmt.Sprint(gpus) {
			return f
		}
	}
	t.Fatalf("no %d-GPU row in output:\n%s", gpus, out)
	return nil
}

// TestRunManifestEfficiencyIsThePrintedRow runs one scale alone: its
// efficiency is against the 1-GPU baseline, not against itself, so the
// row, the manifest and the default sweep's row for that scale are one
// value.
func TestRunManifestEfficiencyIsThePrintedRow(t *testing.T) {
	var sweep strings.Builder
	if err := run(nil, nil, &sweep); err != nil {
		t.Fatal(err)
	}
	want := row(t, sweep.String(), 132)

	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-gpus", "132", "-runs-dir", dir}, []string{"PATH=/bin"}, &out); err != nil {
		t.Fatal(err)
	}
	got := row(t, out.String(), 132)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("-gpus 132 row %q, default sweep's 132 row %q", got, want)
	}

	data, err := os.ReadFile(filepath.Join(dir, "summit-sim-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		FinalEfficiency float64 `json:"final_efficiency"`
		Config          struct {
			Knobs []string `json:"knobs"`
		} `json:"config"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if printed := fmt.Sprintf("%.1f%%", 100*m.FinalEfficiency); printed != got[2] {
		t.Fatalf("manifest final_efficiency %v prints as %s, the table row says %s", m.FinalEfficiency, printed, got[2])
	}
	if m.FinalEfficiency < 0.925 || m.FinalEfficiency >= 0.926 {
		t.Fatalf("132-GPU efficiency at seed 1 = %v, want 0.925…", m.FinalEfficiency)
	}
	// The manifest says how the run was configured: every knob the
	// table renders for the default Horovod and MV2-GDR knobs, and -alg.
	knobs := strings.Join(m.Config.Knobs, " ")
	if want := "HOROVOD_CACHE_CAPACITY=0 HOROVOD_CYCLE_TIME=5 HOROVOD_FUSION_THRESHOLD=67108864 HOROVOD_HIERARCHICAL_ALLREDUCE=0 " +
		"MV2_CUDA_BLOCK_SIZE=262144 MV2_GPUDIRECT_LIMIT=8192 MV2_IBA_EAGER_LIMIT=16384 MV2_USE_CUDA=1 MV2_USE_GPUDIRECT=1 -alg=auto"; knobs != want {
		t.Fatalf("manifest knobs %q, want %q", knobs, want)
	}
}

// TestRunReadsTheEnvironment runs one scale under inherited knobs: the
// variables reach the simulation, its header (the hierarchy overrides
// -alg, as in Horovod) and its manifest.
func TestRunReadsTheEnvironment(t *testing.T) {
	dir := t.TempDir()
	environ := []string{"HOME=/nowhere", "HOROVOD_CYCLE_TIME=0.5", "HOROVOD_HIERARCHICAL_ALLREDUCE=1", "MV2_USE_GPUDIRECT=0"}
	var out strings.Builder
	if err := run([]string{"-gpus", "132", "-tuned", "-alg", "ring", "-runs-dir", dir}, environ, &out); err != nil {
		t.Fatal(err)
	}
	var plain strings.Builder
	if err := run([]string{"-gpus", "132", "-tuned", "-alg", "ring"}, nil, &plain); err != nil {
		t.Fatal(err)
	}
	if got, base := row(t, out.String(), 132), row(t, plain.String(), 132); got[1] == base[1] {
		t.Fatalf("inherited knobs left the 132-GPU row at %s img/s", got[1])
	}
	if !strings.Contains(out.String(), " alg=hier-leader\n") {
		t.Errorf("header does not name the hierarchy that ran:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "summit-sim-seed1.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"HOROVOD_CYCLE_TIME=0.5"`, `"HOROVOD_CACHE_CAPACITY=1024"`, `"HOROVOD_HIERARCHICAL_ALLREDUCE=1"`, `"MV2_USE_GPUDIRECT=0"`, `"-alg=ring"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("manifest lacks %s:\n%s", want, data)
		}
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-gpus", "6,x"},
		{"-model", "nope"},
		{"-alg", "nope"},
		{"stray"},
		// No live plane: a sweep ends before anything could scrape it.
		{"-obs-addr", "127.0.0.1:0"},
		{"-obs-linger", "1s"},
		{"-slo", "0.94"},
		{"-flight", "flight.json"},
	} {
		var out strings.Builder
		if err := run(args, nil, &out); err == nil {
			t.Errorf("run(%q): want error", args)
		}
	}
	for _, env := range []string{"HOROVOD_HIERARCHICAL_ALLREDUCE=true", "MV2_CUDA_BLOCK_SIZE=0", "HOROVOD_CYCLE_TIME=0"} {
		var out strings.Builder
		err := run([]string{"-gpus", "6"}, []string{env}, &out)
		if name, _, _ := strings.Cut(env, "="); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("run under %s: error %v, want one naming %s", env, err, name)
		}
	}
}
