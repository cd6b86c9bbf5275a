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
	if err := run(nil, &sweep); err != nil {
		t.Fatal(err)
	}
	want := row(t, sweep.String(), 132)

	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-gpus", "132", "-runs-dir", dir}, &out); err != nil {
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
}

func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-gpus", "6,x"},
		{"-model", "nope"},
		{"stray"},
		// No live plane: a sweep ends before anything could scrape it.
		{"-obs-addr", "127.0.0.1:0"},
		{"-obs-linger", "1s"},
		{"-slo", "0.94"},
		{"-flight", "flight.json"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q): want error", args)
		}
	}
}
