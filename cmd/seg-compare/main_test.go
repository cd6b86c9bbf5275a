package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"segscale/internal/traceanalysis"
)

// writeLedger materialises a ledger file for the tool to read.
func writeLedger(t *testing.T, dir, name string, l *traceanalysis.Ledger) string {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteLedger(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// mkLedger builds rows over `steps` steps × 2 ranks; slow scales rank
// compute and adds idle time blamed on rank 1, modelling a straggler.
func mkLedger(steps int, slow float64) *traceanalysis.Ledger {
	l := &traceanalysis.Ledger{Schema: traceanalysis.LedgerSchema, Source: "test", Ranks: 2}
	for s := 0; s < steps; s++ {
		// Deterministic per-step wobble so variances are nonzero.
		wobble := 1 + 0.01*float64(s%3)
		for r := 0; r < 2; r++ {
			var b traceanalysis.BucketSet
			b[traceanalysis.BucketForward] = 0.2 * wobble * slow
			b[traceanalysis.BucketBackward] = 0.4 * wobble * slow
			b[traceanalysis.BucketWire] = 0.003
			b[traceanalysis.BucketOverhead] = 0.01
			row := traceanalysis.StepAttribution{Step: s, Rank: r, BlameRank: -1}
			if r == 0 && slow > 1 {
				b[traceanalysis.BucketIdleWait] = 0.1 * wobble
				row.BlameRank = 1
				row.BlameEdge = "1>0#0.0"
			}
			row.Buckets = b
			row.StepSec = b.Sum()
			l.Steps = append(l.Steps, row)
		}
	}
	return l
}

func TestCompareIdenticalLedgersPasses(t *testing.T) {
	dir := t.TempDir()
	a := writeLedger(t, dir, "a.json", mkLedger(8, 1))
	b := writeLedger(t, dir, "b.json", mkLedger(8, 1))
	var out bytes.Buffer
	code, err := run([]string{a, b}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("identical ledgers exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no regression") {
		t.Fatalf("output missing verdict:\n%s", out.String())
	}
}

func TestCompareFlagsStragglerRegression(t *testing.T) {
	dir := t.TempDir()
	base := writeLedger(t, dir, "base.json", mkLedger(8, 1))
	cand := writeLedger(t, dir, "cand.json", mkLedger(8, 1.5))
	var out bytes.Buffer
	code, err := run([]string{base, cand}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("straggler candidate exit %d, want 1\n%s", code, out.String())
	}
	s := out.String()
	for _, want := range []string{"REGRESSION", "idle_wait", "step_wall", "rank 1 blamed most"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestCompareIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	base := writeLedger(t, dir, "base.json", mkLedger(8, 1))
	cand := writeLedger(t, dir, "cand.json", mkLedger(8, 1.2))
	var a, b bytes.Buffer
	if _, err := run([]string{base, cand}, &a); err != nil {
		t.Fatal(err)
	}
	if _, err := run([]string{base, cand}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same inputs produced different reports")
	}
}

func TestValidateMode(t *testing.T) {
	dir := t.TempDir()
	good := writeLedger(t, dir, "good.json", mkLedger(2, 1))
	var out bytes.Buffer
	code, err := run([]string{"-validate", good}, &out)
	if err != nil || code != 0 {
		t.Fatalf("valid ledger: code %d err %v\n%s", code, err, out.String())
	}

	bad := filepath.Join(dir, "bad.json")
	broken := strings.Replace(readFile(t, good), `"step_sec": `, `"step_sec": 99`, 1)
	if err := os.WriteFile(bad, []byte(broken), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err = run([]string{"-validate", bad}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "INVALID") {
		t.Fatalf("sum-violating ledger: code %d\n%s", code, out.String())
	}
}

func TestCompareManifests(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	cand := filepath.Join(dir, "cand.json")
	writeStr(t, base, `{"tool":"summit-sim","git_rev":"aaa","seed":1,"final_efficiency":0.90}`)
	writeStr(t, cand, `{"tool":"summit-sim","git_rev":"bbb","seed":1,"final_efficiency":0.70}`)
	var out bytes.Buffer
	code, err := run([]string{base, cand}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "efficiency dropped") {
		t.Fatalf("efficiency drop: code %d\n%s", code, out.String())
	}

	out.Reset()
	code, err = run([]string{base, base}, &out)
	if err != nil || code != 0 {
		t.Fatalf("self-compare: code %d err %v", code, err)
	}
}

func TestMixedArtifactsRejected(t *testing.T) {
	dir := t.TempDir()
	ledger := writeLedger(t, dir, "l.json", mkLedger(2, 1))
	man := filepath.Join(dir, "m.json")
	writeStr(t, man, `{"tool":"summit-sim","final_efficiency":0.9}`)
	if _, err := run([]string{ledger, man}, &bytes.Buffer{}); err == nil {
		t.Fatal("mixed ledger/manifest compare accepted")
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func writeStr(t *testing.T, path, s string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestLoadAndUsageErrors(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer

	if _, err := run([]string{filepath.Join(dir, "nope.json")}, &out); err == nil {
		t.Error("single positional arg accepted without -validate")
	}
	if _, err := run([]string{"-validate", "a", "b"}, &out); err == nil {
		t.Error("-validate with two args accepted")
	}
	if _, err := run([]string{"-validate", filepath.Join(dir, "nope.json")}, &out); err == nil {
		t.Error("-validate on a missing file not an I/O error")
	}
	if _, err := load(filepath.Join(dir, "nope.json")); err == nil {
		t.Error("missing file loaded")
	}

	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := load(bad); err == nil {
		t.Error("malformed JSON loaded")
	}

	neither := filepath.Join(dir, "neither.json")
	os.WriteFile(neither, []byte("{}"), 0o644)
	if _, err := load(neither); err == nil || !strings.Contains(err.Error(), "not a run manifest") {
		t.Errorf("kind sniffing on {}: %v", err)
	}

	invalid := filepath.Join(dir, "invalid.json")
	os.WriteFile(invalid, []byte(`{"schema": 99, "source": "x", "ranks": 1, "steps": []}`), 0o644)
	if _, err := load(invalid); err == nil {
		t.Error("ledger failing Validate loaded")
	}
	good := writeLedger(t, dir, "good.json", mkLedger(2, 1))
	if _, err := run([]string{good, invalid}, &out); err == nil {
		t.Error("invalid candidate accepted")
	}
	if _, err := run([]string{invalid, good}, &out); err == nil {
		t.Error("invalid baseline accepted")
	}
}

func TestZScoreAndSign(t *testing.T) {
	if sign(-2) != -1 || sign(0) != 1 || sign(3) != 1 {
		t.Error("sign convention broken")
	}
	if z := zScore(stats{n: 3, mean: 1}, stats{n: 3, mean: 1}); z != 0 {
		t.Errorf("identical means z = %g, want 0", z)
	}
	if z := zScore(stats{n: 3, mean: 1}, stats{n: 3, mean: 2}); !math.IsInf(z, 1) {
		t.Errorf("zero-variance shift z = %g, want +Inf", z)
	}
	if z := zScore(stats{n: 3, mean: 2}, stats{n: 3, mean: 1}); !math.IsInf(z, -1) {
		t.Errorf("zero-variance drop z = %g, want -Inf", z)
	}
	b := summarize([]float64{1, 2, 3})
	if b.n != 3 || b.mean != 2 || b.sv != 1 {
		t.Errorf("summarize = %+v, want n=3 mean=2 sv=1", b)
	}
	if e := summarize(nil); e.n != 0 || e.mean != 0 {
		t.Errorf("empty summarize = %+v", e)
	}
}
