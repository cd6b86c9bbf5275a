package deeplab

import (
	"math"
	"testing"

	"segscale/internal/nn"
	"segscale/internal/segdata"
	"segscale/internal/tensor"
)

// TestWorkspaceFootprint pins the bytes one rank's arena owns once it
// is warm: two training steps and one evaluation batch, each drawing
// its input from the arena and Reset before it as the trainer does, on
// one worker. Peak arena size is set by the widest point of a step, so
// a gradient temporary held until Reset — a weight-sized dW per conv,
// or every layer's input gradient — shows here as a larger pin. A
// footprint above the pin is a regression; one below it fails with
// "re-pin to N", so a saving gets written into the table.
//
// The pins fell when conv backward stopped drawing per-sample dW
// partials at one worker: at batch 1 dW folds straight into the
// parameter's gradient, and at batch 4 into one weight-sized sum, so
// the arena no longer keeps a buffer in each conv weight's size class
// (3 429 376 → 1 594 368 and 4 289 024 → 4 144 640 B).
func TestWorkspaceFootprint(t *testing.T) {
	comm := DefaultConfig()
	comm.InputSize, comm.Width = 8, 64
	for _, row := range []struct {
		name  string
		cfg   Config
		batch int
		pin   uint64
	}{
		{"comm_8x8_w64_b1", comm, 1, 1594368},
		{"default_b4", DefaultConfig(), 4, 4144640},
	} {
		t.Run(row.name, func(t *testing.T) {
			got := warmFootprint(row.cfg, row.batch)
			t.Logf("pooled bytes: %d (pin %d)", got, row.pin)
			if got != row.pin {
				t.Errorf("arena owns %d B, pinned at %d: a regression if more, re-pin to %d if fewer", got, row.pin, got)
			}
		})
	}
}

// warmFootprint returns Workspace.Stats().PooledBytes after two
// training steps at batch and one 4-image evaluation batch of a model
// built from cfg.
func warmFootprint(cfg Config, batch int) uint64 {
	const evalBatch = 4
	m := New(cfg)
	ws := tensor.NewWorkspace()
	ws.SetWorkers(1)
	m.SetWorkspace(ws)
	ds := segdata.New(batch+evalBatch, cfg.InputSize, cfg.InputSize, 3)
	hw := cfg.InputSize * cfg.InputSize
	labels := make([]int32, evalBatch*hw)
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7}
	draw := func(ids []int) *tensor.Tensor {
		ws.Reset()
		x := ws.GetRaw(len(ids), 3, cfg.InputSize, cfg.InputSize)
		ds.BatchInto(ids, x, labels[:len(ids)*hw])
		return x
	}
	for step := 0; step < 2; step++ {
		x := draw(ids[:batch])
		m.Loss(x, labels[:batch*hw], segdata.IgnoreLabel, true)
		nn.ZeroGrads(m.Params())
	}
	x := draw(ids[batch : batch+evalBatch])
	m.PredictInto(x, make([]int32, evalBatch*hw))
	return ws.Stats().PooledBytes
}

// scribbler is a pass-through layer that fills every free buffer of
// its workspace with NaN on each forward and backward, so a tensor
// released while something still reads it poisons the result.
type scribbler struct{ ws *tensor.Workspace }

func (s *scribbler) SetWorkspace(ws *tensor.Workspace) { s.ws = ws }
func (s *scribbler) Params() []*nn.Param               { return nil }

func (s *scribbler) Forward(x *tensor.Tensor, _ bool) *tensor.Tensor {
	s.scribble()
	return x
}

func (s *scribbler) Backward(d *tensor.Tensor) *tensor.Tensor {
	s.scribble()
	return d
}

// scribble fills the eight most recently released buffers of every
// capacity class up to 2^14 floats with NaN and hands them back in
// their order. A class with fewer free buffers gains one, a fresh
// buffer the miss allocated; the model would have drawn it otherwise,
// so the arena grows by at most eight buffers a class.
func (s *scribbler) scribble() {
	if s.ws == nil {
		return
	}
	nan := float32(math.NaN())
	var held [8]*tensor.Tensor
	for size := 64; size <= 1<<14; size *= 2 {
		n := 0
		for n < len(held) {
			hits := s.ws.Stats().Hits
			held[n] = s.ws.GetRaw(size)
			n++
			if s.ws.Stats().Hits == hits {
				break
			}
			for i := range held[n-1].Data {
				held[n-1].Data[i] = nan
			}
		}
		for n > 0 {
			n--
			s.ws.Put(held[n])
		}
	}
}

// scribbleBetween puts a scribbler before, between and after the layers
// of s and of every Sequential nested in it.
func scribbleBetween(s *nn.Sequential) {
	layers := []nn.Layer{&scribbler{}}
	for _, l := range s.Layers {
		if inner, ok := l.(*nn.Sequential); ok {
			scribbleBetween(inner)
		}
		layers = append(layers, l, &scribbler{})
	}
	s.Layers = layers
}

// scribbled returns m with scribblers threaded through every Sequential
// of the network, so they fire between the releases of xblock, aspp
// and Model.Backward as well as inside each Sequential's.
func scribbled(m *Model) *Model {
	seqs := []*nn.Sequential{m.entry, m.head.poolConv, m.head.project}
	for _, b := range append([]*xblock{m.down}, m.deep...) {
		seqs = append(seqs, b.body)
		if sc, ok := b.shortcut.(*nn.Sequential); ok {
			seqs = append(seqs, sc)
		}
	}
	for _, b := range m.head.branches {
		seqs = append(seqs, b.(*nn.Sequential))
	}
	if !m.Cfg.NoDecoder {
		seqs = append(seqs, m.decLow, m.decoder)
	}
	for _, s := range seqs {
		scribbleBetween(s)
	}
	return m
}

// TestBackwardReleasesAreDead holds every gradient release in the
// backward pass — Sequential's, xblock's, aspp's and Model's — to the
// workspace contract: nothing reads a tensor after its Put. With every
// free buffer poisoned between layers, the pooled model's loss and
// parameter gradients must match the heap path's bit for bit over two
// steps, with the decoder and without it, and with the ASPP dropout
// active and inactive (an inactive dropout hands the caller's gradient
// back unchanged, and that must not be released).
func TestBackwardReleasesAreDead(t *testing.T) {
	noDec := smallCfg()
	noDec.NoDecoder = true
	drop := smallCfg()
	drop.DropProb = 0.2
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"decoder_dropout", drop}, {"no_decoder", noDec}} {
		t.Run(tc.name, func(t *testing.T) {
			heap := New(tc.cfg)
			pooled := scribbled(New(tc.cfg))
			ws := tensor.NewWorkspace()
			ws.SetWorkers(1)
			pooled.SetWorkspace(ws)
			ds := segdata.New(2, tc.cfg.InputSize, tc.cfg.InputSize, 5)
			x, labels := ds.Batch([]int{0, 1})
			for step := 0; step < 2; step++ {
				ws.Reset()
				want := heap.Loss(x, labels, segdata.IgnoreLabel, true)
				got := pooled.Loss(x, labels, segdata.IgnoreLabel, true)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d: loss %v, heap path %v", step, got, want)
				}
				for i, p := range pooled.Params() {
					hp := heap.Params()[i]
					for j, v := range p.G.Data {
						if math.Float32bits(v) != math.Float32bits(hp.G.Data[j]) {
							t.Fatalf("step %d: %s grad[%d] = %g, heap path %g", step, p.Name, j, v, hp.G.Data[j])
						}
					}
				}
			}
		})
	}
}
