package netsim

import (
	"math"
	"testing"

	"segscale/internal/mpiprofile"
	"segscale/internal/netmodel"
	"segscale/internal/topology"
)

func slots(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// analyticModel is the netmodel the simulation is checked against.
func analyticModel(t *testing.T, mach topology.Machine, prof *mpiprofile.Profile) *netmodel.Model {
	t.Helper()
	m, err := netmodel.New(mach, prof)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustNet(t *testing.T, mach topology.Machine, prof *mpiprofile.Profile) *Network {
	t.Helper()
	nw, err := New(mach, prof)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewValidates(t *testing.T) {
	if _, err := New(topology.Machine{}, mpiprofile.MV2GDR()); err == nil {
		t.Error("invalid machine accepted")
	}
	bad := mpiprofile.MV2GDR()
	bad.BWInter = 0
	if _, err := New(topology.Summit(1), bad); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestTrivialGroups(t *testing.T) {
	nw := mustNet(t, topology.Summit(1), mpiprofile.MV2GDR())
	res, err := nw.RingAllreduce(slots(1), 1<<20, nil)
	if err != nil || res.Finish != 0 {
		t.Fatalf("single rank: %v, finish %g", err, res.Finish)
	}
	if _, err := nw.RingAllreduce(nil, 4, nil); err == nil {
		t.Error("empty group accepted")
	}
	if _, err := nw.RingAllreduce(slots(2), 4, []float64{0}); err == nil {
		t.Error("wrong starts length accepted")
	}
}

func TestMessageCount(t *testing.T) {
	nw := mustNet(t, topology.Summit(1), mpiprofile.MV2GDR())
	p := 6
	res, err := nw.RingAllreduce(slots(p), 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * p * (p - 1); res.Messages != want {
		t.Fatalf("messages %d, want %d", res.Messages, want)
	}
	if len(res.PerRank) != p {
		t.Fatalf("per-rank results %d", len(res.PerRank))
	}
	for _, tm := range res.PerRank {
		if tm <= 0 || tm > res.Finish {
			t.Fatalf("per-rank time %g outside (0, %g]", tm, res.Finish)
		}
	}
}

// The two-view validation: for an uncongested intra-node ring the
// message-level simulation must agree with the analytic α–β cost
// within modelling tolerance.
func TestAgreesWithAnalyticIntraNode(t *testing.T) {
	mach := topology.Summit(1)
	for _, prof := range []*mpiprofile.Profile{mpiprofile.MV2GDR(), mpiprofile.Spectrum()} {
		for _, n := range []int{1 << 20, 16 << 20} {
			nw := mustNet(t, mach, prof)
			res, err := nw.RingAllreduce(slots(6), n, nil)
			if err != nil {
				t.Fatal(err)
			}
			analytic := analyticModel(t, mach, prof).AllreduceRing(slots(6), n)
			ratio := res.Finish / analytic
			if ratio < 0.5 || ratio > 1.6 {
				t.Errorf("%s n=%d: netsim %.3gms vs analytic %.3gms (ratio %.2f)",
					prof.Name, n, res.Finish*1e3, analytic*1e3, ratio)
			}
		}
	}
}

func TestAgreesWithAnalyticInterNode(t *testing.T) {
	mach := topology.Summit(4)
	prof := mpiprofile.MV2GDR()
	n := 16 << 20
	nw := mustNet(t, mach, prof)
	res, err := nw.RingAllreduce(slots(24), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	analytic := analyticModel(t, mach, prof).AllreduceRing(slots(24), n)
	ratio := res.Finish / analytic
	if ratio < 0.4 || ratio > 1.8 {
		t.Errorf("inter-node: netsim %.3gms vs analytic %.3gms (ratio %.2f)",
			res.Finish*1e3, analytic*1e3, ratio)
	}
}

func TestCyclicPlacementCongestsNIC(t *testing.T) {
	// With ranks placed round-robin, every ring edge crosses the NIC
	// and each node's NIC carries 6 concurrent flows: the
	// message-level simulation must show a large slowdown.
	mach := topology.Summit(4)
	prof := mpiprofile.MV2GDR()
	n := 16 << 20

	packed, err := mustNet(t, mach, prof).RingAllreduce(slots(24), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	cyclic := make([]int, 24)
	for i := range cyclic {
		cyclic[i] = (i%4)*6 + i/4
	}
	strided, err := mustNet(t, mach, prof).RingAllreduce(cyclic, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strided.Finish < 2*packed.Finish {
		t.Fatalf("cyclic placement only %.2f× slower (packed %.3gms, cyclic %.3gms)",
			strided.Finish/packed.Finish, packed.Finish*1e3, strided.Finish*1e3)
	}
}

func TestStragglerPropagates(t *testing.T) {
	// Delaying one rank's start must delay everyone's finish by at
	// least most of that skew — the lockstep property of rings.
	mach := topology.Summit(1)
	prof := mpiprofile.MV2GDR()
	n := 4 << 20

	base, err := mustNet(t, mach, prof).RingAllreduce(slots(6), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	const skew = 5e-3
	starts := make([]float64, 6)
	starts[3] = skew
	skewed, err := mustNet(t, mach, prof).RingAllreduce(slots(6), n, starts)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.Finish < base.Finish+0.8*skew {
		t.Fatalf("straggler absorbed: base %.3gms, skewed %.3gms", base.Finish*1e3, skewed.Finish*1e3)
	}
}

func TestGDRFasterThanStagedInterNode(t *testing.T) {
	mach := topology.Summit(2)
	n := 8 << 20
	gdr, err := mustNet(t, mach, mpiprofile.MV2GDR()).RingAllreduce(slots(12), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	staged, err := mustNet(t, mach, mpiprofile.Spectrum()).RingAllreduce(slots(12), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gdr.Finish >= staged.Finish {
		t.Fatalf("GDR (%.3gms) not faster than staged (%.3gms)", gdr.Finish*1e3, staged.Finish*1e3)
	}
}

func TestMonotoneInMessageSize(t *testing.T) {
	mach := topology.Summit(2)
	prof := mpiprofile.MV2GDR()
	prev := 0.0
	for _, n := range []int{1 << 16, 1 << 20, 1 << 24} {
		res, err := mustNet(t, mach, prof).RingAllreduce(slots(12), n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Finish <= prev {
			t.Fatalf("finish not increasing at n=%d", n)
		}
		prev = res.Finish
	}
}

func TestSendDirect(t *testing.T) {
	nw := mustNet(t, topology.Summit(2), mpiprofile.MV2GDR())
	var at float64
	nw.Send(0, 7, 1<<20, 0, func(t float64) { at = t })
	nw.Sim.Run()
	if at <= 0 {
		t.Fatal("inter-node send never delivered")
	}
	// Self-send delivers immediately.
	var selfAt float64 = -1
	nw.Send(3, 3, 100, 1.0, func(t float64) { selfAt = t })
	nw.Sim.Run()
	if math.Abs(selfAt-1.0) > 1e-12 {
		t.Fatalf("self send delivered at %g", selfAt)
	}
}
