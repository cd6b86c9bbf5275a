package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"path/filepath"
	"testing"

	"segscale/internal/nn"
	"segscale/internal/segdata"
)

// trainedState trains a small model one step and snapshots everything
// — weights and stats off init, real optimiser velocity.
func trainedState(t *testing.T, seed int64) (State, *nn.SGD) {
	t.Helper()
	m := smallModel(seed)
	ds := segdata.New(4, 16, 16, 3)
	x, labels := ds.Batch([]int{0, 1})
	opt := nn.NewSGD(0.05)
	m.Loss(x, labels, segdata.IgnoreLabel, true)
	opt.Step(m.Params())
	return State{
		Params:   m.Params(),
		BNs:      m.BatchNorms(),
		Velocity: opt.ExportState(m.Params()),
		Meta:     &Meta{Epoch: 3, Step: 17},
	}, opt
}

func TestStateRoundTrip(t *testing.T) {
	src, _ := trainedState(t, 1)
	var buf bytes.Buffer
	if err := SaveState(&buf, src); err != nil {
		t.Fatal(err)
	}

	m2 := smallModel(42)
	dst := State{Params: m2.Params(), BNs: m2.BatchNorms()}
	if err := LoadState(bytes.NewReader(buf.Bytes()), &dst); err != nil {
		t.Fatal(err)
	}
	if dst.Meta == nil || *dst.Meta != (Meta{Epoch: 3, Step: 17}) {
		t.Fatalf("meta = %+v", dst.Meta)
	}
	for i := range src.Params {
		for j, v := range src.Params[i].W.Data {
			if dst.Params[i].W.Data[j] != v {
				t.Fatalf("param %s[%d] differs", src.Params[i].Name, j)
			}
		}
	}
	// BN stats must round-trip losslessly (float64 sections) — the
	// bit-identical restart invariant depends on it.
	for i := range src.BNs {
		for j := range src.BNs[i].RunningMean {
			if src.BNs[i].RunningMean[j] != dst.BNs[i].RunningMean[j] ||
				src.BNs[i].RunningVar[j] != dst.BNs[i].RunningVar[j] {
				t.Fatalf("bn %d stats lost precision", i)
			}
		}
	}
	if len(dst.Velocity) != len(src.Velocity) {
		t.Fatalf("velocity tensors %d vs %d", len(dst.Velocity), len(src.Velocity))
	}
	for i := range src.Velocity {
		for j, v := range src.Velocity[i] {
			if dst.Velocity[i][j] != v {
				t.Fatalf("velocity %d[%d] differs", i, j)
			}
		}
	}
	// The restored velocity feeds back into an optimiser.
	opt2 := nn.NewSGD(0.05)
	if err := opt2.ImportState(dst.Params, dst.Velocity); err != nil {
		t.Fatal(err)
	}
}

func TestStateFileRoundTripAndReadMeta(t *testing.T) {
	src, _ := trainedState(t, 2)
	path := filepath.Join(t.TempDir(), "state.segc")
	if err := SaveStateFile(path, src); err != nil {
		t.Fatal(err)
	}
	if meta := readMeta(t, path); meta != (Meta{Epoch: 3, Step: 17}) {
		t.Fatalf("meta = %+v", meta)
	}
	m2 := smallModel(3)
	dst := State{Params: m2.Params(), BNs: m2.BatchNorms()}
	if err := LoadStateFile(path, &dst); err != nil {
		t.Fatal(err)
	}
	if dst.Params[0].W.Data[0] != src.Params[0].W.Data[0] {
		t.Fatal("state file round trip failed")
	}
}

func TestWeightsOnlySnapshotHasNoMeta(t *testing.T) {
	m := smallModel(4)
	var buf bytes.Buffer
	if err := Save(&buf, m.Params(), m.BatchNorms()); err != nil {
		t.Fatal(err)
	}
	m2 := smallModel(5)
	dst := State{Params: m2.Params(), BNs: m2.BatchNorms()}
	if err := LoadState(bytes.NewReader(buf.Bytes()), &dst); err != nil {
		t.Fatal(err)
	}
	if dst.Meta != nil || dst.Velocity != nil {
		t.Fatalf("weights-only load produced meta %+v velocity %d", dst.Meta, len(dst.Velocity))
	}
}

// writeV1 reproduces the version-1 container byte-for-byte: float32
// sections whose length field counts values, not bytes.
func writeV1(t *testing.T, st State) []byte {
	t.Helper()
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(magic))
	binary.Write(&buf, binary.LittleEndian, uint16(1))
	sec := func(kind byte, name string, data []float32) {
		buf.WriteByte(kind)
		buf.WriteByte(byte(len(name)))
		buf.WriteString(name)
		binary.Write(&buf, binary.LittleEndian, uint32(len(data)))
		for _, v := range data {
			binary.Write(&buf, binary.LittleEndian, math.Float32bits(v))
		}
	}
	for _, p := range st.Params {
		sec(secParam, p.Name, p.W.Data)
	}
	for i, bn := range st.BNs {
		stats := make([]float32, 0, 2*len(bn.RunningMean))
		for _, v := range bn.RunningMean {
			stats = append(stats, float32(v))
		}
		for _, v := range bn.RunningVar {
			stats = append(stats, float32(v))
		}
		sec(secBNStats, "bn"+string(rune('0'+i%10)), stats)
	}
	buf.WriteByte(secEnd)
	return buf.Bytes()
}

func TestLoadAcceptsVersion1(t *testing.T) {
	src, _ := trainedState(t, 6)
	data := writeV1(t, src)
	m2 := smallModel(7)
	dst := State{Params: m2.Params(), BNs: m2.BatchNorms()}
	if err := LoadState(bytes.NewReader(data), &dst); err != nil {
		t.Fatal(err)
	}
	for i := range src.Params {
		for j, v := range src.Params[i].W.Data {
			if dst.Params[i].W.Data[j] != v {
				t.Fatalf("param %s[%d] differs via v1", src.Params[i].Name, j)
			}
		}
	}
	// v1 BN stats round-trip through float32 — equal after truncation.
	for i := range src.BNs {
		for j := range src.BNs[i].RunningMean {
			if float32(src.BNs[i].RunningMean[j]) != float32(dst.BNs[i].RunningMean[j]) {
				t.Fatalf("bn %d stats differ via v1", i)
			}
		}
	}
}

func TestSaveStateRejectsBadShapes(t *testing.T) {
	m := smallModel(8)
	var buf bytes.Buffer
	bad := State{Params: m.Params(), BNs: m.BatchNorms(),
		Velocity: make([][]float32, 1)} // wrong tensor count
	if err := SaveState(&buf, bad); err == nil {
		t.Fatal("velocity count mismatch accepted")
	}
	neg := State{Params: m.Params(), BNs: m.BatchNorms(), Meta: &Meta{Epoch: -1}}
	if err := SaveState(&buf, neg); err == nil {
		t.Fatal("negative meta accepted")
	}
}

func TestLoadStateRejectsTruncatedOptimiser(t *testing.T) {
	src, _ := trainedState(t, 9)
	var buf bytes.Buffer
	// Drop the last velocity tensor: structural mismatch must error.
	short := src
	short.Velocity = src.Velocity[:len(src.Velocity)-1]
	if err := SaveState(&buf, short); err == nil {
		t.Fatal("short velocity accepted at save")
	}
}

// The loss-scale section is optional: a snapshot without it is
// byte-identical to one written before the section existed (the file
// ends where the velocity sections do), and one with it round-trips
// exactly. Both load into the same State shape.
func TestLossScaleSection(t *testing.T) {
	src, _ := trainedState(t, 10)
	var plain, scaled bytes.Buffer
	if err := SaveState(&plain, src); err != nil {
		t.Fatal(err)
	}
	src.LossScale = &LossScale{Scale: 1 << 17, Good: 23}
	if err := SaveState(&scaled, src); err != nil {
		t.Fatal(err)
	}
	// The section sits just before the end marker: kind, name, length,
	// 12-byte payload.
	extra := 1 + 1 + len("loss_scale") + 4 + 12
	if scaled.Len() != plain.Len()+extra ||
		!bytes.Equal(scaled.Bytes()[:plain.Len()-1], plain.Bytes()[:plain.Len()-1]) {
		t.Fatalf("loss-scale section is not a pure %d-byte suffix: %d vs %d bytes", extra, scaled.Len(), plain.Len())
	}

	m := smallModel(11)
	dst := State{Params: m.Params(), BNs: m.BatchNorms()}
	if err := LoadState(bytes.NewReader(scaled.Bytes()), &dst); err != nil {
		t.Fatal(err)
	}
	if dst.LossScale == nil || *dst.LossScale != *src.LossScale {
		t.Fatalf("loss scale = %+v, want %+v", dst.LossScale, *src.LossScale)
	}
	if err := LoadState(bytes.NewReader(plain.Bytes()), &dst); err != nil {
		t.Fatal(err)
	}
	if dst.LossScale != nil {
		t.Fatalf("snapshot without the section loaded loss scale %+v", *dst.LossScale)
	}

	for _, bad := range []LossScale{{Scale: 0}, {Scale: -2}, {Scale: math.Inf(1)}, {Scale: math.NaN()}, {Scale: 2, Good: -1}} {
		src.LossScale = &bad
		if err := SaveState(&bytes.Buffer{}, src); err == nil {
			t.Errorf("loss scale %+v accepted at save", bad)
		}
	}
	// A well-framed section carrying a non-positive scale is rejected
	// at load, as is one of the wrong size.
	body := plain.Bytes()[:plain.Len()-1]
	for _, payload := range [][]byte{make([]byte, 12), make([]byte, 8)} {
		var buf bytes.Buffer
		buf.Write(body)
		writeSection(&buf, secScale, "loss_scale", payload)
		buf.WriteByte(secEnd)
		if err := LoadState(bytes.NewReader(buf.Bytes()), &dst); err == nil {
			t.Errorf("%d-byte zero loss-scale payload accepted", len(payload))
		}
	}
}
