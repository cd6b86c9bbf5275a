// Package checkpoint serialises and restores training state: model
// parameters, batch-norm running statistics, optimiser velocity, and
// progress metadata — what long-running distributed jobs on Summit
// write between job allocations, and what the checkpoint-restart
// recovery path replays after an injected rank failure. The format is
// a small self-describing binary container (magic, version, named
// sections with lengths), written with encoding/binary; no
// reflection, no external deps.
//
// Version 2 adds three section kinds over the v1
// parameters-plus-float32-BN layout: float64 batch-norm statistics
// (v1's float32 truncation loses the low bits, which would break the
// bit-identical-restart invariant), optimiser velocity, and an
// epoch/step metadata record. Readers accept both versions. A v2 file
// may also carry a mixed-precision run's dynamic loss-scaler state;
// the section is written only when State.LossScale is set, so fp32
// snapshots are byte-identical to files written before it existed.
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"segscale/internal/nn"
)

const (
	magic   = 0x5345_4743 // "SEGC"
	version = 2

	secParam   = 1
	secBNStats = 2 // float32 BN running stats (v1 legacy)
	secOpt     = 3 // optimiser velocity, one section per parameter
	secMeta    = 4 // epoch/step progress record
	secBN64    = 5 // float64 BN running stats (lossless)
	secScale   = 6 // dynamic loss-scaler state (mixed precision only)
	secEnd     = 0xFF
)

// Meta records where training stood when the snapshot was taken.
type Meta struct {
	// Epoch is the number of fully completed epochs.
	Epoch int
	// Step is the number of fully completed global steps.
	Step int
}

// State bundles everything a training job needs to resume
// bit-identically. Params and BNs point at the live model (restored
// in place); Velocity and Meta are optional extras a v1 snapshot
// lacks.
type State struct {
	Params []*nn.Param
	BNs    []*nn.BatchNorm2D
	// Velocity is the optimiser state in Params order (nil = not
	// saved / not present in the file).
	Velocity [][]float32
	// Meta is the progress record (nil = not saved / not present).
	Meta *Meta
	// LossScale is the dynamic loss scaler's state (nil = not saved /
	// not present).
	LossScale *LossScale
}

// LossScale is a mixed-precision run's dynamic loss-scaler state: the
// current scale and the count of consecutive overflow-free steps at it.
type LossScale struct {
	Scale float64
	Good  int
}

// Save writes parameters and batch-norm running statistics — the v1
// API, kept for callers that snapshot weights only. The container is
// still version 2 (lossless float64 BN stats).
func Save(w io.Writer, params []*nn.Param, bns []*nn.BatchNorm2D) error {
	return SaveState(w, State{Params: params, BNs: bns})
}

// Load restores parameters and batch-norm statistics written by Save
// or SaveState, ignoring any optimiser/meta sections — the v1 API.
func Load(r io.Reader, params []*nn.Param, bns []*nn.BatchNorm2D) error {
	st := State{Params: params, BNs: bns}
	return LoadState(r, &st)
}

// SaveState writes a full training snapshot to w.
func SaveState(w io.Writer, st State) error {
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw); err != nil {
		return err
	}
	if st.Meta != nil {
		if st.Meta.Epoch < 0 || st.Meta.Step < 0 {
			return fmt.Errorf("checkpoint: negative meta %+v", *st.Meta)
		}
		payload := make([]byte, 8)
		binary.LittleEndian.PutUint32(payload, uint32(st.Meta.Epoch))
		binary.LittleEndian.PutUint32(payload[4:], uint32(st.Meta.Step))
		if err := writeSection(bw, secMeta, "meta", payload); err != nil {
			return err
		}
	}
	for _, p := range st.Params {
		if err := writeSection(bw, secParam, p.Name, f32Bytes(p.W.Data)); err != nil {
			return err
		}
	}
	for i, bn := range st.BNs {
		stats := make([]float64, 0, 2*len(bn.RunningMean))
		stats = append(stats, bn.RunningMean...)
		stats = append(stats, bn.RunningVar...)
		if err := writeSection(bw, secBN64, fmt.Sprintf("bn%d", i), f64Bytes(stats)); err != nil {
			return err
		}
	}
	if st.Velocity != nil {
		if len(st.Velocity) != len(st.Params) {
			return fmt.Errorf("checkpoint: %d velocity tensors for %d parameters",
				len(st.Velocity), len(st.Params))
		}
		for i, v := range st.Velocity {
			if err := writeSection(bw, secOpt, st.Params[i].Name, f32Bytes(v)); err != nil {
				return err
			}
		}
	}
	if ls := st.LossScale; ls != nil {
		if !(ls.Scale > 0) || math.IsInf(ls.Scale, 0) || ls.Good < 0 {
			return fmt.Errorf("checkpoint: invalid loss scale %+v", *ls)
		}
		payload := make([]byte, 12)
		binary.LittleEndian.PutUint64(payload, math.Float64bits(ls.Scale))
		binary.LittleEndian.PutUint32(payload[8:], uint32(ls.Good))
		if err := writeSection(bw, secScale, "loss_scale", payload); err != nil {
			return err
		}
	}
	if err := bw.WriteByte(secEnd); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadState restores a snapshot into st's Params and BNs (which must
// structurally match the writing model — same names, order, lengths)
// and fills st.Velocity, st.Meta and st.LossScale when the file
// carries them.
// Both container versions are accepted; a v1 file restores float32 BN
// statistics and leaves Velocity and Meta nil.
func LoadState(r io.Reader, st *State) error {
	br := bufio.NewReader(r)
	ver, err := readHeader(br)
	if err != nil {
		return err
	}
	st.Velocity = nil
	st.Meta = nil
	st.LossScale = nil
	var velocity [][]float32
	pi, bi, oi := 0, 0, 0
	for {
		kind, name, raw, err := readSection(br, ver)
		if err != nil {
			return err
		}
		switch kind {
		case secEnd:
			if pi != len(st.Params) || bi != len(st.BNs) {
				return fmt.Errorf("checkpoint: restored %d/%d params, %d/%d batch norms",
					pi, len(st.Params), bi, len(st.BNs))
			}
			if velocity != nil && oi != len(st.Params) {
				return fmt.Errorf("checkpoint: restored %d/%d optimiser tensors", oi, len(st.Params))
			}
			st.Velocity = velocity
			return nil
		case secParam:
			if pi >= len(st.Params) {
				return fmt.Errorf("checkpoint: extra parameter %q", name)
			}
			p := st.Params[pi]
			data, err := bytesF32(raw, name)
			if err != nil {
				return err
			}
			if name != p.Name {
				return fmt.Errorf("checkpoint: parameter %d is %q, model has %q", pi, name, p.Name)
			}
			if len(data) != p.W.Len() {
				return fmt.Errorf("checkpoint: %q has %d values, model wants %d", name, len(data), p.W.Len())
			}
			copy(p.W.Data, data)
			pi++
		case secBNStats:
			if bi >= len(st.BNs) {
				return fmt.Errorf("checkpoint: extra batch-norm section %q", name)
			}
			data, err := bytesF32(raw, name)
			if err != nil {
				return err
			}
			bn := st.BNs[bi]
			c := len(bn.RunningMean)
			if len(data) != 2*c {
				return fmt.Errorf("checkpoint: %q has %d stats, model wants %d", name, len(data), 2*c)
			}
			for i := 0; i < c; i++ {
				bn.RunningMean[i] = float64(data[i])
				bn.RunningVar[i] = float64(data[c+i])
			}
			bi++
		case secBN64:
			if bi >= len(st.BNs) {
				return fmt.Errorf("checkpoint: extra batch-norm section %q", name)
			}
			data, err := bytesF64(raw, name)
			if err != nil {
				return err
			}
			bn := st.BNs[bi]
			c := len(bn.RunningMean)
			if len(data) != 2*c {
				return fmt.Errorf("checkpoint: %q has %d stats, model wants %d", name, len(data), 2*c)
			}
			copy(bn.RunningMean, data[:c])
			copy(bn.RunningVar, data[c:])
			bi++
		case secOpt:
			if oi >= len(st.Params) {
				return fmt.Errorf("checkpoint: extra optimiser section %q", name)
			}
			p := st.Params[oi]
			data, err := bytesF32(raw, name)
			if err != nil {
				return err
			}
			if name != p.Name {
				return fmt.Errorf("checkpoint: optimiser tensor %d is %q, model has %q", oi, name, p.Name)
			}
			if len(data) != p.W.Len() {
				return fmt.Errorf("checkpoint: optimiser %q has %d values, parameter wants %d",
					name, len(data), p.W.Len())
			}
			if velocity == nil {
				velocity = make([][]float32, len(st.Params))
			}
			velocity[oi] = data
			oi++
		case secMeta:
			if len(raw) != 8 {
				return fmt.Errorf("checkpoint: meta section has %d bytes, want 8", len(raw))
			}
			st.Meta = &Meta{
				Epoch: int(binary.LittleEndian.Uint32(raw)),
				Step:  int(binary.LittleEndian.Uint32(raw[4:])),
			}
		case secScale:
			if len(raw) != 12 {
				return fmt.Errorf("checkpoint: loss-scale section has %d bytes, want 12", len(raw))
			}
			ls := &LossScale{
				Scale: math.Float64frombits(binary.LittleEndian.Uint64(raw)),
				Good:  int(binary.LittleEndian.Uint32(raw[8:])),
			}
			if !(ls.Scale > 0) || math.IsInf(ls.Scale, 0) {
				return fmt.Errorf("checkpoint: loss scale %g is not a positive finite value", ls.Scale)
			}
			st.LossScale = ls
		default:
			return fmt.Errorf("checkpoint: unknown section kind %d", kind)
		}
	}
}

// LoadFile restores a checkpoint from disk.
func LoadFile(path string, params []*nn.Param, bns []*nn.BatchNorm2D) error {
	st := State{Params: params, BNs: bns}
	return LoadStateFile(path, &st)
}

// SaveStateFile writes a full snapshot atomically and durably:
//
//   - The temp file is created with os.CreateTemp in the target
//     directory (unique name per call), so two concurrent saves to the
//     same path can never clobber each other's half-written temp — a
//     fixed "path.tmp" name would let them — and the rename can never
//     cross a filesystem boundary.
//   - The file is fsynced before the rename, and the parent directory
//     after it. Rename-without-fsync is the classic crash-durability
//     bug: after a power loss the recovery path could find a
//     zero-length or torn "complete" checkpoint, the one state the
//     atomic-rename protocol exists to rule out.
//   - Every error path removes the temp file; a failed save leaves the
//     directory exactly as it found it.
func SaveStateFile(path string, st State) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := SaveState(f, st); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Windows cannot open directories for writing; the rename itself is
// the best available there, so the sync is skipped rather than failed.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// LoadStateFile restores a full snapshot from disk.
func LoadStateFile(path string, st *State) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadState(f, st)
}

func writeHeader(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(magic)); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, uint16(version))
}

func readHeader(r io.Reader) (int, error) {
	var m uint32
	if err := binary.Read(r, binary.LittleEndian, &m); err != nil {
		return 0, fmt.Errorf("checkpoint: reading magic: %w", err)
	}
	if m != magic {
		return 0, fmt.Errorf("checkpoint: bad magic %#x", m)
	}
	var v uint16
	if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
		return 0, err
	}
	if v != 1 && v != version {
		return 0, fmt.Errorf("checkpoint: unsupported version %d", v)
	}
	return int(v), nil
}

// writeSection writes one section: kind, name, byte length, payload.
func writeSection(w io.Writer, kind byte, name string, payload []byte) error {
	if len(name) > 255 {
		return fmt.Errorf("checkpoint: name %q too long", name)
	}
	if _, err := w.Write([]byte{kind, byte(len(name))}); err != nil {
		return err
	}
	if _, err := io.WriteString(w, name); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(payload))); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// f32Bytes encodes float32 values little-endian.
func f32Bytes(data []float32) []byte {
	buf := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return buf
}

// f64Bytes encodes float64 values little-endian.
func f64Bytes(data []float64) []byte {
	buf := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

// bytesF32 decodes a section payload as float32s.
func bytesF32(raw []byte, name string) ([]float32, error) {
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("checkpoint: section %q has %d bytes, not a float32 multiple", name, len(raw))
	}
	data := make([]float32, len(raw)/4)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return data, nil
}

// bytesF64 decodes a section payload as float64s.
func bytesF64(raw []byte, name string) ([]float64, error) {
	if len(raw)%8 != 0 {
		return nil, fmt.Errorf("checkpoint: section %q has %d bytes, not a float64 multiple", name, len(raw))
	}
	data := make([]float64, len(raw)/8)
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return data, nil
}

// readSection reads one section header and its raw payload. The
// length field counts bytes in v2 files and float32 values in v1
// files; either way it is bounded before allocation so a malformed
// file cannot drive an over-allocation.
func readSection(r *bufio.Reader, ver int) (kind byte, name string, raw []byte, err error) {
	kind, err = r.ReadByte()
	if err != nil {
		return 0, "", nil, fmt.Errorf("checkpoint: reading section kind: %w", err)
	}
	if kind == secEnd {
		return kind, "", nil, nil
	}
	nameLen, err := r.ReadByte()
	if err != nil {
		return 0, "", nil, err
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(r, nameBuf); err != nil {
		return 0, "", nil, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return 0, "", nil, err
	}
	size := uint64(n)
	if ver == 1 {
		size *= 4 // v1 counted float32 values, not bytes
	}
	const maxSection = 1 << 30 // 1 GiB — far above any model here
	if size > maxSection {
		return 0, "", nil, fmt.Errorf("checkpoint: section %q implausibly large (%d bytes)", nameBuf, size)
	}
	raw = make([]byte, size)
	if _, err := io.ReadFull(r, raw); err != nil {
		return 0, "", nil, err
	}
	return kind, string(nameBuf), raw, nil
}
