package netsim

import (
	"testing"

	"segscale/internal/mpiprofile"
	"segscale/internal/topology"
)

func TestHierLeaderCompletesAllRanks(t *testing.T) {
	mach := topology.Summit(4)
	nw := mustNet(t, mach, mpiprofile.MV2GDR())
	res, err := nw.HierLeaderAllreduce(4<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish <= 0 {
		t.Fatal("no finish time")
	}
	for r, tm := range res.PerRank {
		if tm <= 0 || tm > res.Finish {
			t.Fatalf("rank %d finish %g outside (0, %g]", r, tm, res.Finish)
		}
	}
	// Phases are ordered: reduce ≤ inter ≤ finish.
	if !(res.ReduceDone <= res.InterDone && res.InterDone <= res.Finish) {
		t.Fatalf("phase times out of order: %g, %g, %g", res.ReduceDone, res.InterDone, res.Finish)
	}
}

func TestHierLeaderSingleNode(t *testing.T) {
	nw := mustNet(t, topology.Summit(1), mpiprofile.MV2GDR())
	res, err := nw.HierLeaderAllreduce(1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Finish <= 0 {
		t.Fatal("single-node hierarchy produced nothing")
	}
	if res.InterDone != res.ReduceDone {
		t.Fatalf("single node should skip the inter phase: %g vs %g", res.InterDone, res.ReduceDone)
	}
}

func TestHierLeaderStartsValidation(t *testing.T) {
	nw := mustNet(t, topology.Summit(2), mpiprofile.MV2GDR())
	if _, err := nw.HierLeaderAllreduce(1024, []float64{0}); err == nil {
		t.Fatal("wrong starts length accepted")
	}
}

// The message-level hierarchy should land within modelling tolerance
// of the analytic hier-leader cost.
func TestHierLeaderAgreesWithAnalytic(t *testing.T) {
	mach := topology.Summit(4)
	prof := mpiprofile.MV2GDR()
	for _, n := range []int{1 << 20, 16 << 20} {
		nw := mustNet(t, mach, prof)
		res, err := nw.HierLeaderAllreduce(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		analytic := analyticModel(t, mach, prof).AllreduceHierLeader(slots(24), n)
		ratio := res.Finish / analytic
		if ratio < 0.3 || ratio > 2.0 {
			t.Errorf("n=%d: netsim %.3gms vs analytic %.3gms (ratio %.2f)",
				n, res.Finish*1e3, analytic*1e3, ratio)
		}
	}
}

// Latency-bound regime: message-level hier-leader should beat the
// message-level flat ring at scale with small buffers, mirroring the
// analytic finding.
func TestHierLeaderBeatsFlatRingSmallBuffers(t *testing.T) {
	mach := topology.Summit(22)
	prof := mpiprofile.MV2GDR()
	n := 1 << 20

	flat, err := mustNet(t, mach, prof).RingAllreduce(slots(132), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := mustNet(t, mach, prof).HierLeaderAllreduce(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if hier.Finish >= flat.Finish {
		t.Fatalf("hier-leader (%.3gms) not faster than flat ring (%.3gms) at 1 MiB/132 ranks",
			hier.Finish*1e3, flat.Finish*1e3)
	}
}

func TestHierTorusCompletes(t *testing.T) {
	mach := topology.Summit(4)
	nw := mustNet(t, mach, mpiprofile.MV2GDR())
	finish, err := nw.HierTorusAllreduce(16<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	if finish <= 0 {
		t.Fatal("no finish time")
	}
	// Starts validation.
	nw2 := mustNet(t, mach, mpiprofile.MV2GDR())
	if _, err := nw2.HierTorusAllreduce(1024, []float64{0}); err == nil {
		t.Fatal("wrong starts length accepted")
	}
}

func TestHierTorusAgreesWithAnalytic(t *testing.T) {
	mach := topology.Summit(4)
	prof := mpiprofile.MV2GDR()
	for _, n := range []int{4 << 20, 64 << 20} {
		nw := mustNet(t, mach, prof)
		finish, err := nw.HierTorusAllreduce(n, nil)
		if err != nil {
			t.Fatal(err)
		}
		analytic := analyticModel(t, mach, prof).AllreduceHierTorus(slots(24), n)
		ratio := finish / analytic
		if ratio < 0.3 || ratio > 2.0 {
			t.Errorf("n=%d: netsim %.3gms vs analytic %.3gms (ratio %.2f)",
				n, finish*1e3, analytic*1e3, ratio)
		}
	}
}

func TestHierTorusVsFlatRingLargeBuffers(t *testing.T) {
	// A finding the message-level simulation surfaces: with full
	// cross-step pipelining, the flat ring is already bandwidth-
	// optimal and the torus's phase barriers cost it — which is
	// exactly why NCCL builds flat rings. The torus must still land
	// within 2× (its bandwidth terms match), and the hierarchy's win
	// remains the latency-bound regime (see the hier-leader
	// small-buffer test).
	mach := topology.Summit(22)
	prof := mpiprofile.MV2GDR()
	n := 64 << 20
	flat, err := mustNet(t, mach, prof).RingAllreduce(slots(132), n, nil)
	if err != nil {
		t.Fatal(err)
	}
	torus, err := mustNet(t, mach, prof).HierTorusAllreduce(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if torus > 2*flat.Finish {
		t.Fatalf("hier-torus (%.3gms) more than 2× flat ring (%.3gms)", torus*1e3, flat.Finish*1e3)
	}
	if torus < 0.5*flat.Finish {
		t.Fatalf("hier-torus (%.3gms) implausibly below flat ring (%.3gms)", torus*1e3, flat.Finish*1e3)
	}
}

func TestHierLeaderStragglerPropagates(t *testing.T) {
	mach := topology.Summit(2)
	prof := mpiprofile.MV2GDR()
	n := 2 << 20
	base, err := mustNet(t, mach, prof).HierLeaderAllreduce(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]float64, 12)
	starts[7] = 4e-3
	skewed, err := mustNet(t, mach, prof).HierLeaderAllreduce(n, starts)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.Finish < base.Finish+3e-3 {
		t.Fatalf("straggler absorbed: %.3gms vs %.3gms", base.Finish*1e3, skewed.Finish*1e3)
	}
}
