package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"segscale/internal/deeplab"
	"segscale/internal/nn"
	"segscale/internal/segdata"
)

func smallModel(seed int64) *deeplab.Model {
	cfg := deeplab.DefaultConfig()
	cfg.InputSize = 16
	cfg.Width = 6
	cfg.DeepBlocks = 1
	cfg.AtrousRates = [3]int{1, 2, 3}
	cfg.Seed = seed
	return deeplab.New(cfg)
}

func TestRoundTripRestoresWeightsAndStats(t *testing.T) {
	src := smallModel(1)
	// Train a step so weights and running stats move off init.
	ds := segdata.New(4, 16, 16, 3)
	x, labels := ds.Batch([]int{0, 1})
	opt := nn.NewSGD(0.05)
	src.Loss(x, labels, segdata.IgnoreLabel, true)
	opt.Step(src.Params())

	var buf bytes.Buffer
	if err := Save(&buf, src.Params(), src.BatchNorms()); err != nil {
		t.Fatal(err)
	}

	dst := smallModel(99) // different init
	if err := Load(&buf, dst.Params(), dst.BatchNorms()); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Params(), dst.Params()
	for i := range sp {
		for j := range sp[i].W.Data {
			if sp[i].W.Data[j] != dp[i].W.Data[j] {
				t.Fatalf("param %s[%d] differs after restore", sp[i].Name, j)
			}
		}
	}
	sb, db := src.BatchNorms(), dst.BatchNorms()
	for i := range sb {
		for j := range sb[i].RunningMean {
			// Stats round-trip through float32.
			if f32(sb[i].RunningMean[j]) != f32(db[i].RunningMean[j]) ||
				f32(sb[i].RunningVar[j]) != f32(db[i].RunningVar[j]) {
				t.Fatalf("bn %d stats differ after restore", i)
			}
		}
	}
	// Restored model predicts identically.
	ps, pd := src.Predict(x), dst.Predict(x)
	for i := range ps {
		if ps[i] != pd[i] {
			t.Fatal("restored model predicts differently")
		}
	}
}

func f32(v float64) float32 { return float32(v) }

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.segc")
	src := smallModel(2)
	if err := SaveStateFile(path, State{Params: src.Params(), BNs: src.BatchNorms()}); err != nil {
		t.Fatal(err)
	}
	dst := smallModel(3)
	if err := LoadFile(path, dst.Params(), dst.BatchNorms()); err != nil {
		t.Fatal(err)
	}
	if src.Params()[0].W.Data[0] != dst.Params()[0].W.Data[0] {
		t.Fatal("file round trip failed")
	}
	// Atomic write: no .tmp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

func TestLoadRejectsCorruptHeader(t *testing.T) {
	m := smallModel(4)
	if err := Load(bytes.NewReader([]byte{1, 2, 3}), m.Params(), m.BatchNorms()); err == nil {
		t.Fatal("short/corrupt stream accepted")
	}
	if err := Load(bytes.NewReader([]byte{0, 0, 0, 0, 1, 0}), m.Params(), m.BatchNorms()); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestLoadRejectsStructureMismatch(t *testing.T) {
	small := smallModel(5)
	var buf bytes.Buffer
	if err := Save(&buf, small.Params(), small.BatchNorms()); err != nil {
		t.Fatal(err)
	}
	// A wider model has different tensor sizes under the same names.
	cfg := deeplab.DefaultConfig()
	cfg.InputSize = 16
	cfg.Width = 8
	cfg.DeepBlocks = 1
	cfg.AtrousRates = [3]int{1, 2, 3}
	big := deeplab.New(cfg)
	if err := Load(bytes.NewReader(buf.Bytes()), big.Params(), big.BatchNorms()); err == nil {
		t.Fatal("mismatched model accepted")
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	m := smallModel(6)
	var buf bytes.Buffer
	if err := Save(&buf, m.Params(), m.BatchNorms()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) / 3, len(data) - 1} {
		dst := smallModel(7)
		if err := Load(bytes.NewReader(data[:cut]), dst.Params(), dst.BatchNorms()); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestLoadRejectsMissingSections(t *testing.T) {
	m := smallModel(8)
	var buf bytes.Buffer
	// Save only the parameters (no BN sections), then end marker.
	if err := Save(&buf, m.Params(), nil); err != nil {
		t.Fatal(err)
	}
	dst := smallModel(9)
	if err := Load(bytes.NewReader(buf.Bytes()), dst.Params(), dst.BatchNorms()); err == nil {
		t.Fatal("checkpoint with missing BN stats accepted")
	}
}
