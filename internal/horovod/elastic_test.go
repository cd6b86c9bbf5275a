package horovod

import (
	"math"
	"reflect"
	"testing"

	"segscale/internal/netmodel"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

func TestNewElasticRuntimeValidation(t *testing.T) {
	mach := topology.Summit(1) // 6 slots
	w, err := transport.NewWorld(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *transport.Comm) error {
		if _, err := NewElasticRuntime(c, mach, []int{0, 1, 2, 4, 5}, Default()); err != nil {
			t.Errorf("valid members: %v", err)
		}
		if _, err := NewElasticRuntime(c, mach, []int{0, 1, 2, 4}, Default()); err == nil {
			t.Error("member count != world size: want error")
		}
		if _, err := NewElasticRuntime(c, mach, []int{0, 1, 2, 4, 6}, Default()); err == nil {
			t.Error("slot outside machine: want error")
		}
		if _, err := NewElasticRuntime(c, mach, []int{0, 2, 1, 4, 5}, Default()); err == nil {
			t.Error("non-ascending members: want error")
		}
		if _, err := NewElasticRuntime(c, mach, []int{0, 1, 2, 2, 5}, Default()); err == nil {
			t.Error("repeated member slot: want error")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeGroupsForSurvivors(t *testing.T) {
	mach := topology.Summit(2) // nodes of slots 0-5 and 6-11
	// Slot 3 died: comm ranks 0-4 live on node 0, 5-10 on node 1.
	got := nodeGroupsFor(mach, []int{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11})
	want := [][]int{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9, 10}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nodeGroupsFor = %v, want %v", got, want)
	}
	// A whole node gone still yields contiguous comm-rank groups.
	got = nodeGroupsFor(mach, []int{6, 7, 8, 9, 10, 11})
	want = [][]int{{0, 1, 2, 3, 4, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("nodeGroupsFor = %v, want %v", got, want)
	}
}

// TestElasticHierAllreduceShrunkenWorld: the hierarchical two-level
// allreduce keeps matching the sequential sum after the world loses a
// slot, for both the hier-2level dispatch and the leader fallback —
// the survivor node partition is uneven, which exercises the leader
// composition inside AllreduceHierGroups.
func TestElasticHierAllreduceShrunkenWorld(t *testing.T) {
	mach := topology.Summit(2)
	members := []int{0, 1, 2, 4, 5, 6, 7, 8, 9, 10, 11} // slot 3 dead
	for _, cse := range []struct {
		name string
		cfg  func() Config
	}{
		{"hier-2level", func() Config { c := Default(); c.Algorithm = netmodel.AlgHierTwoLevel; return c }},
		{"hier-leader-fallback", func() Config { c := Default(); c.Hierarchical = true; return c }},
	} {
		t.Run(cse.name, func(t *testing.T) {
			p := len(members)
			n := 257
			want := make([]float64, n)
			ins := make([][]float32, p)
			for r := range ins {
				ins[r] = make([]float32, n)
				for i := range ins[r] {
					ins[r][i] = float32(r*n+i) / 512
					want[i] += float64(ins[r][i])
				}
			}
			outs := make([][]float32, p)
			if err := runWorld(p, func(c *transport.Comm) error {
				rt, err := NewElasticRuntime(c, mach, members, cse.cfg())
				if err != nil {
					return err
				}
				buf := append([]float32(nil), ins[c.Rank()]...)
				if err := allreduce(rt, buf); err != nil {
					return err
				}
				outs[c.Rank()] = buf
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p; r++ {
				for i := range want {
					if math.Abs(float64(outs[r][i])-want[i]) > 1e-3 {
						t.Fatalf("rank %d elem %d: %g vs %g", r, i, outs[r][i], want[i])
					}
				}
			}
		})
	}
}

// TestBroadcastFloat64ExactBits: the float64 broadcast is bit-exact,
// including values whose 32-bit halves happen to form float32 NaN or
// denormal patterns — the wire only copies, never does arithmetic.
func TestBroadcastFloat64ExactBits(t *testing.T) {
	src := []float64{
		0, math.Copysign(0, -1), 1.0 / 3.0, math.Pi, -2.5e-308, // denormal-ish
		math.Float64frombits(0x123456787FC00001), // low half is a float32 NaN pattern
		math.Float64frombits(0x7FC0000112345678), // high half is a float32 NaN pattern
		math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	mach := topology.ForGPUs(3)
	if err := runWorld(3, func(c *transport.Comm) error {
		rt := newRuntime(c, mach, Default())
		buf := make([]float64, len(src))
		if c.Rank() == 0 {
			copy(buf, src)
		} else {
			for i := range buf {
				buf[i] = float64(c.Rank()) // garbage to overwrite
			}
		}
		if err := rt.BroadcastFloat64Exact(buf); err != nil {
			return err
		}
		for i, v := range buf {
			if math.Float64bits(v) != math.Float64bits(src[i]) {
				t.Errorf("rank %d elem %d: %016x vs %016x", c.Rank(), i, math.Float64bits(v), math.Float64bits(src[i]))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
