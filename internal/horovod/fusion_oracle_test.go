package horovod

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"segscale/internal/fp16"
	"segscale/internal/nn"
	"segscale/internal/tensor"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// The fusion-buffer allreduce the in-place one replaced, kept as its
// oracle: each group's gradients are copied (times pre) into a
// separate buffer, the buffer is reduced, and the averaged result is
// scattered back.

// packFused copies each grouped tensor's gradient, times scale,
// back-to-back into the fusion buffer.
func packFused(buf []float32, params []*nn.Param, group []int, scale float32) {
	off := 0
	for _, i := range group {
		g := params[i].G.Data
		dst := buf[off : off+len(g)]
		if scale == 1 {
			copy(dst, g)
		} else {
			for j, v := range g {
				dst[j] = v * scale
			}
		}
		off += len(g)
	}
}

// unpackFused averages (and unscales) the summed fusion buffer, then
// scatters it into the grouped tensors' gradients; with judge set it
// reports whether any average was non-finite. The arithmetic ran in
// place on the buffer, which the collective had just left in cache,
// and the scatter stayed a memmove: storing products one float at a
// time straight into the gradients — cold by then, and too many to stay
// cached — stalled on the store buffer and measured twice as slow.
func unpackFused(params []*nn.Param, group []int, buf []float32, inv, post float32, judge bool) (nonFinite bool) {
	if judge {
		nonFinite = scaleJudged(buf, inv, post)
	} else {
		for i, v := range buf {
			buf[i] = v * inv * post
		}
	}
	off := 0
	for _, i := range group {
		off += copy(params[i].G.Data, buf[off:])
	}
	return nonFinite
}

// encodeFused is packFused for the binary16 wire, one tensor at a time.
func encodeFused(buf []uint16, params []*nn.Param, group []int, scale float32) error {
	off := 0
	for _, i := range group {
		g := params[i].G.Data
		if err := fp16.EncodeScaled(g, buf[off:off+len(g)], scale); err != nil {
			return err
		}
		off += len(g)
	}
	return nil
}

// decodeFused is unpackFused for the binary16 wire, one tensor at a
// time.
func decodeFused(params []*nn.Param, group []int, buf []uint16, inv, post float32) (nonFinite bool, err error) {
	off := 0
	for _, i := range group {
		g := params[i].G.Data
		bad, err := fp16.DecodeScaled(buf[off:off+len(g)], g, inv, post)
		if err != nil {
			return false, err
		}
		nonFinite = nonFinite || bad
		off += len(g)
	}
	return nonFinite, nil
}

// fusedOracle is allreduceGrads as it ran through a fusion buffer.
func fusedOracle(r *Runtime, params []*nn.Param, pre, post float32, judge bool) (nonFinite bool, err error) {
	inv := 1 / float32(r.Size())
	for _, group := range PlanFusion(r.planSizes, r.Cfg.FusionThreshold) {
		n := GroupBytes(r.planSizes, group) / 4
		var bad bool
		if r.Cfg.FP16Compression {
			buf := make([]uint16, n)
			if err = encodeFused(buf, params, group, pre); err == nil {
				err = allreduce(r, buf)
			}
			if err == nil {
				bad, err = decodeFused(params, group, buf, inv, post)
			}
		} else {
			buf := make([]float32, n)
			packFused(buf, params, group, pre)
			if err = allreduce(r, buf); err == nil {
				bad = unpackFused(params, group, buf, inv, post, judge)
			}
		}
		if err != nil {
			return false, err
		}
		nonFinite = nonFinite || bad
	}
	return nonFinite, nil
}

// TestAllreduceGradsMatchesFusionBufferOracle: reducing each group's
// arena range in place leaves every gradient, and the verdict, bit for
// bit where the fusion-buffer copy in and out left them — on both
// wires, unscaled and with a loss scale riding the two passes, clean
// and poisoned, in one group and in many.
func TestAllreduceGradsMatchesFusionBufferOracle(t *testing.T) {
	shapes := []int{7, 129, 3, 64, 1, 40}
	for _, half := range []bool{false, true} {
		for _, threshold := range []int{64 << 20, 256} {
			for _, poison := range []bool{false, true} {
				for _, scale := range []float32{1, 1024} {
					cfg := Default()
					cfg.FP16Compression = half
					cfg.FusionThreshold = threshold
					name := fmt.Sprintf("fp16=%v threshold=%d poison=%v scale=%g", half, threshold, poison, scale)
					err := runWorld(3, func(c *transport.Comm) error {
						rt := newRuntime(c, topology.ExactFor(3), cfg)
						want := scalerParams(c.Rank(), shapes, poison)
						rt.fusionPlan(want)
						wantBad, err := fusedOracle(rt, want, scale, 1/scale, true)
						if err != nil {
							return err
						}
						got := scalerParams(c.Rank(), shapes, poison)
						var gotBad bool
						if scale == 1 && !poison {
							// The unscaled entry point, which leaves the
							// verdict out on the float32 wire.
							err = rt.AllreduceGrads(got)
						} else {
							gotBad, err = rt.AllreduceGradsScaled(got, scale, 1/scale)
						}
						if err != nil {
							return err
						}
						if gotBad != wantBad {
							return fmt.Errorf("rank %d: verdict %v, oracle %v", c.Rank(), gotBad, wantBad)
						}
						for i := range got {
							for j, v := range got[i].G.Data {
								if w := want[i].G.Data[j]; math.Float32bits(v) != math.Float32bits(w) {
									return fmt.Errorf("rank %d tensor %d[%d]: %x, oracle %x",
										c.Rank(), i, j, math.Float32bits(v), math.Float32bits(w))
								}
							}
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// TestAllreduceGradsRejectsNonContiguous: a parameter list whose
// gradients are not back to back in one arena is an error on every
// rank, returned before anything is sent — so no rank is left blocked
// in a receive — whether each gradient was allocated on its own or a
// laid-out list was reordered.
func TestAllreduceGradsRejectsNonContiguous(t *testing.T) {
	lists := map[string]func(rank int) []*nn.Param{
		"separate": func(int) []*nn.Param {
			ps := make([]*nn.Param, 3)
			for i := range ps {
				ps[i] = &nn.Param{Name: fmt.Sprint("p", i), W: tensor.New(8), G: tensor.New(8)}
			}
			return ps
		},
		"reordered": func(rank int) []*nn.Param {
			ps := makeParams(rank, []int{8, 0, 8, 8})
			ps[2], ps[3] = ps[3], ps[2]
			return ps
		},
	}
	for name, list := range lists {
		for _, half := range []bool{false, true} {
			cfg := Default()
			cfg.FusionThreshold = 64 // bytes: the check covers the whole list, not one group
			cfg.FP16Compression = half
			errs := make([]error, 2)
			done := make(chan error, 1)
			go func() {
				done <- runWorld(2, func(c *transport.Comm) error {
					errs[c.Rank()] = newRuntime(c, topology.ForGPUs(2), cfg).AllreduceGrads(list(c.Rank()))
					return nil
				})
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s fp16=%v: %v", name, half, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s fp16=%v: a rank is still blocked after 10 s", name, half)
			}
			for rank, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "nn.LayOutGrads") {
					t.Errorf("%s fp16=%v rank %d: err = %v, want the layout error", name, half, rank, err)
				}
				if errors.Is(err, transport.ErrRankFailed) {
					t.Errorf("%s fp16=%v rank %d: the layout error came from the wire: %v", name, half, rank, err)
				}
			}
		}
	}
}
