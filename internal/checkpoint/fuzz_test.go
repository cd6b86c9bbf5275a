package checkpoint

import (
	"bytes"
	"testing"

	"segscale/internal/deeplab"
)

// FuzzLoad hardens the checkpoint reader against corrupt or
// adversarial inputs: any byte stream must produce an error or a
// clean load, never a panic or runaway allocation.
func FuzzLoad(f *testing.F) {
	cfg := deeplab.DefaultConfig()
	cfg.InputSize = 16
	cfg.Width = 6
	cfg.DeepBlocks = 1
	cfg.AtrousRates = [3]int{1, 2, 3}

	// Seed with a valid checkpoint and mutations of it.
	m := deeplab.New(cfg)
	var valid bytes.Buffer
	if err := Save(&valid, m.Params(), m.BatchNorms()); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	truncated := valid.Bytes()[:valid.Len()/2]
	f.Add(truncated)
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x47, 0x45, 0x53, 1, 0}) // magic, v1, nothing else
	bigSection := append(append([]byte{}, valid.Bytes()[:6]...),
		1, 1, 'x', 0xFF, 0xFF, 0xFF, 0x7F) // section claiming 2³¹ floats
	f.Add(bigSection)

	f.Fuzz(func(t *testing.T, data []byte) {
		model := deeplab.New(cfg)
		// Must not panic; error or success are both fine.
		_ = Load(bytes.NewReader(data), model.Params(), model.BatchNorms())
	})
}

// FuzzLoadState hardens the full-state (v2) reader: optimiser, meta,
// loss-scale and float64 batch-norm sections must survive arbitrary corruption
// with an error, never a panic or runaway allocation.
func FuzzLoadState(f *testing.F) {
	cfg := deeplab.DefaultConfig()
	cfg.InputSize = 16
	cfg.Width = 6
	cfg.DeepBlocks = 1
	cfg.AtrousRates = [3]int{1, 2, 3}

	m := deeplab.New(cfg)
	velocity := make([][]float32, len(m.Params()))
	for i, p := range m.Params() {
		velocity[i] = make([]float32, p.W.Len())
	}
	var valid bytes.Buffer
	err := SaveState(&valid, State{
		Params:   m.Params(),
		BNs:      m.BatchNorms(),
		Velocity: velocity,
		Meta:     &Meta{Epoch: 2, Step: 9},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// A mixed-precision snapshot: the same state plus the loss-scale
	// section, and that section with a non-finite scale.
	var mixed bytes.Buffer
	err = SaveState(&mixed, State{
		Params:    m.Params(),
		BNs:       m.BatchNorms(),
		Velocity:  velocity,
		Meta:      &Meta{Epoch: 2, Step: 9},
		LossScale: &LossScale{Scale: 512, Good: 7},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(mixed.Bytes())
	infScale := append([]byte{}, mixed.Bytes()...)
	copy(infScale[len(infScale)-13:], []byte{0, 0, 0, 0, 0, 0, 0xF0, 0x7F})
	f.Add(infScale)
	f.Add(valid.Bytes()[:valid.Len()/2])
	f.Add([]byte{})
	f.Add([]byte{0x43, 0x47, 0x45, 0x53, 2, 0}) // magic, v2, nothing else
	// Meta section with a wrong payload size.
	f.Add(append(append([]byte{}, valid.Bytes()[:6]...), secMeta, 1, 'm', 3, 0, 0, 0, 1, 2, 3))
	// Section claiming ~4 GiB of payload.
	f.Add(append(append([]byte{}, valid.Bytes()[:6]...), secOpt, 1, 'x', 0xFF, 0xFF, 0xFF, 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		model := deeplab.New(cfg)
		st := State{Params: model.Params(), BNs: model.BatchNorms()}
		_ = LoadState(bytes.NewReader(data), &st)
	})
}
