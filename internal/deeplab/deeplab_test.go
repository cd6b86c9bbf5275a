package deeplab

import (
	"math"
	"testing"

	"segscale/internal/nn"
	"segscale/internal/segdata"
	"segscale/internal/tensor"
)

func smallCfg() Config {
	cfg := DefaultConfig()
	cfg.InputSize = 16
	cfg.Width = 6
	cfg.DeepBlocks = 1
	cfg.AtrousRates = [3]int{1, 2, 3}
	cfg.DropProb = 0
	return cfg
}

func TestForwardShape(t *testing.T) {
	m := New(smallCfg())
	x := tensor.New(2, 3, 16, 16)
	logits := m.Forward(x, false)
	want := []int{2, 21, 16, 16}
	for i, d := range want {
		if logits.Dim(i) != d {
			t.Fatalf("logits shape %v, want %v", logits.Shape, want)
		}
	}
}

func TestForwardWrongSizePanics(t *testing.T) {
	m := New(smallCfg())
	defer func() {
		if recover() == nil {
			t.Error("wrong input size accepted")
		}
	}()
	m.Forward(tensor.New(1, 3, 24, 24), false)
}

func TestConfigValidation(t *testing.T) {
	bads := []func(c *Config){
		func(c *Config) { c.InputSize = 10 },
		func(c *Config) { c.Classes = 1 },
		func(c *Config) { c.AtrousRates = [3]int{0, 2, 3} },
		func(c *Config) { c.DeepBlocks = 0 },
	}
	for i, mutate := range bads {
		cfg := smallCfg()
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d accepted", i)
				}
			}()
			New(cfg)
		}()
	}
}

func TestDeterministicInit(t *testing.T) {
	a, b := New(smallCfg()), New(smallCfg())
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param lists differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name {
			t.Fatalf("param order differs at %d: %s vs %s", i, pa[i].Name, pb[i].Name)
		}
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatalf("weights differ for %s", pa[i].Name)
			}
		}
	}
}

func TestParamCountScalesWithWidth(t *testing.T) {
	small := New(smallCfg())
	cfg := smallCfg()
	cfg.Width = 12
	big := New(cfg)
	if big.ParamCount() <= small.ParamCount() {
		t.Fatalf("width 12 params %d not above width 6 params %d", big.ParamCount(), small.ParamCount())
	}
}

func TestLossDecreasesUnderTraining(t *testing.T) {
	cfg := smallCfg()
	m := New(cfg)
	ds := segdata.New(8, cfg.InputSize, cfg.InputSize, 42)
	x, labels := ds.Batch([]int{0, 1, 2, 3})
	opt := nn.NewSGD(0.05)

	first := m.Loss(x, labels, segdata.IgnoreLabel, true)
	opt.Step(m.Params())
	nn.ZeroGrads(m.Params())
	var last float64
	for i := 0; i < 14; i++ {
		last = m.Loss(x, labels, segdata.IgnoreLabel, true)
		opt.Step(m.Params())
		nn.ZeroGrads(m.Params())
	}
	if !(last < first*0.7) {
		t.Fatalf("loss did not drop: first %.4f, last %.4f", first, last)
	}
	if math.IsNaN(last) || math.IsInf(last, 0) {
		t.Fatalf("loss diverged: %v", last)
	}
}

func TestGradientsFlowToAllParams(t *testing.T) {
	cfg := smallCfg()
	m := New(cfg)
	ds := segdata.New(4, cfg.InputSize, cfg.InputSize, 7)
	x, labels := ds.Batch([]int{0, 1})
	m.Loss(x, labels, segdata.IgnoreLabel, true)
	zero := 0
	for _, p := range m.Params() {
		if p.G.MaxAbs() == 0 {
			zero++
			t.Logf("zero gradient: %s", p.Name)
		}
	}
	// ReLU dead units can zero the odd tensor, but the bulk of the
	// network must receive gradient.
	if zero > len(m.Params())/10 {
		t.Fatalf("%d of %d parameter tensors have zero gradient", zero, len(m.Params()))
	}
}

func TestPredictShapeAndRange(t *testing.T) {
	cfg := smallCfg()
	m := New(cfg)
	ds := segdata.New(4, cfg.InputSize, cfg.InputSize, 3)
	x, _ := ds.Batch([]int{0, 1})
	pred := m.Predict(x)
	if len(pred) != 2*cfg.InputSize*cfg.InputSize {
		t.Fatalf("prediction length %d", len(pred))
	}
	for _, p := range pred {
		if p < 0 || p >= int32(cfg.Classes) {
			t.Fatalf("prediction %d out of range", p)
		}
	}
}

func TestEvalModeDeterministic(t *testing.T) {
	cfg := smallCfg()
	cfg.DropProb = 0.5 // dropout must be inert in eval mode
	m := New(cfg)
	ds := segdata.New(4, cfg.InputSize, cfg.InputSize, 5)
	x, _ := ds.Batch([]int{0})
	a := m.Forward(x, false)
	b := m.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("eval forward not deterministic")
		}
	}
}

func TestNoDecoderVariant(t *testing.T) {
	// DeepLab-v3 (no decoder): same logits contract, fewer params,
	// still trainable.
	cfg := smallCfg()
	cfg.NoDecoder = true
	v3 := New(cfg)
	v3plus := New(smallCfg())
	if v3.ParamCount() >= v3plus.ParamCount() {
		t.Fatalf("v3 params %d not below v3+ %d", v3.ParamCount(), v3plus.ParamCount())
	}
	x := tensor.New(1, 3, 16, 16)
	logits := v3.Forward(x, false)
	if logits.Dim(1) != 21 || logits.Dim(2) != 16 {
		t.Fatalf("v3 logits %v", logits.Shape)
	}
	ds := segdata.New(4, cfg.InputSize, cfg.InputSize, 21)
	xb, labels := ds.Batch([]int{0, 1})
	opt := nn.NewSGD(0.05)
	first := v3.Loss(xb, labels, segdata.IgnoreLabel, true)
	opt.Step(v3.Params())
	nn.ZeroGrads(v3.Params())
	var last float64
	for i := 0; i < 10; i++ {
		last = v3.Loss(xb, labels, segdata.IgnoreLabel, true)
		opt.Step(v3.Params())
		nn.ZeroGrads(v3.Params())
	}
	if !(last < first) {
		t.Fatalf("v3 did not learn: %.4f → %.4f", first, last)
	}
	// BatchNorms list excludes the (absent) decoder layers.
	if len(v3.BatchNorms()) >= len(v3plus.BatchNorms()) {
		t.Fatal("v3 should have fewer batch norms")
	}
}

func TestFCNBaseline(t *testing.T) {
	cfg := smallCfg()
	f := NewFCN(cfg)
	ds := segdata.New(4, cfg.InputSize, cfg.InputSize, 9)
	x, labels := ds.Batch([]int{0, 1})
	logits := f.Forward(x, false)
	if logits.Dim(1) != cfg.Classes || logits.Dim(2) != cfg.InputSize {
		t.Fatalf("fcn logits %v", logits.Shape)
	}
	opt := nn.NewSGD(0.05)
	first := f.Loss(x, labels, segdata.IgnoreLabel, true)
	opt.Step(f.Params())
	nn.ZeroGrads(f.Params())
	var last float64
	for i := 0; i < 14; i++ {
		last = f.Loss(x, labels, segdata.IgnoreLabel, true)
		opt.Step(f.Params())
		nn.ZeroGrads(f.Params())
	}
	if !(last < first) {
		t.Fatalf("fcn loss did not drop: %.4f → %.4f", first, last)
	}
}

func TestDeepLabHasMoreMachineryThanFCN(t *testing.T) {
	cfg := smallCfg()
	dl, fcn := New(cfg), NewFCN(cfg)
	// Same label space and input contract.
	x := tensor.New(1, 3, cfg.InputSize, cfg.InputSize)
	if dl.Forward(x, false).Dim(1) != fcn.Forward(x, false).Dim(1) {
		t.Fatal("class dims differ")
	}
	// DeepLab must contain atrous convolutions; the FCN must not.
	hasAtrous := func(params []*nn.Param) bool {
		for _, p := range params {
			if len(p.Name) > 5 && p.Name[:5] == "aspp." {
				return true
			}
		}
		return false
	}
	if !hasAtrous(dl.Params()) {
		t.Error("DeepLab has no ASPP parameters")
	}
	if hasAtrous(fcn.Params()) {
		t.Error("FCN has ASPP parameters")
	}
}

// End-to-end gradient check through the full graph at a few points.
func TestModelNumericalGradient(t *testing.T) {
	cfg := smallCfg()
	cfg.InputSize = 8
	m := New(cfg)
	ds := segdata.New(2, 8, 8, 13)
	x, labels := ds.Batch([]int{0})

	nn.ZeroGrads(m.Params())
	// Use eval-mode BN statistics to keep the function smooth for
	// finite differences (train-mode batch stats couple pixels).
	// First run one train pass to move running stats off init.
	m.Loss(x, labels, segdata.IgnoreLabel, true)
	nn.ZeroGrads(m.Params())

	logits := m.Forward(x, false)
	loss, dlogits := tensor.SoftmaxCrossEntropyWS(logits, labels, segdata.IgnoreLabel, nil)
	_ = loss
	m.Backward(dlogits)

	eval := func() float64 {
		l, _ := tensor.SoftmaxCrossEntropyWS(m.Forward(x, false), labels, segdata.IgnoreLabel, nil)
		return l
	}
	checked := 0
	for _, p := range m.Params() {
		if p.Name != "classifier.w" && p.Name != "dec.fuse2.w" && p.Name != "entry.w" {
			continue
		}
		for _, i := range []int{0, p.W.Len() / 2} {
			const eps = 1e-2
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			up := eval()
			p.W.Data[i] = orig - eps
			down := eval()
			p.W.Data[i] = orig
			want := (up - down) / (2 * eps)
			if d := math.Abs(float64(p.G.Data[i]) - want); d > 5e-2*(1+math.Abs(want)) {
				t.Errorf("%s grad[%d] = %g, numerical %g", p.Name, i, p.G.Data[i], want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no parameters checked — names changed?")
	}
}
