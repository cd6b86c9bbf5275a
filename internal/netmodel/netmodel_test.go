package netmodel

import (
	"math"
	"testing"
	"testing/quick"

	"segscale/internal/mpiprofile"
	"segscale/internal/topology"
)

const MiB = 1 << 20

func worldModel(t testing.TB, nodes int, prof *mpiprofile.Profile) *Model {
	return newModel(t, topology.Summit(nodes), prof)
}

func newModel(t testing.TB, mach topology.Machine, prof *mpiprofile.Profile) *Model {
	t.Helper()
	m, err := New(mach, prof)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// concreteAlgs lists every algorithm but AlgAuto.
var concreteAlgs = []Algorithm{AlgRing, AlgRecursiveDoubling, AlgRabenseifner, AlgHierLeader, AlgHierTorus, AlgHierTwoLevel}

func TestNewValidates(t *testing.T) {
	if _, err := New(topology.Machine{Nodes: 0, GPUsPer: 6}, mpiprofile.MV2GDR()); err == nil {
		t.Error("invalid machine accepted")
	}
	bad := mpiprofile.MV2GDR()
	bad.BWInter = 0
	if _, err := New(topology.Summit(1), bad); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestXferZeroAndSelf(t *testing.T) {
	m := worldModel(t, 2, mpiprofile.MV2GDR())
	if m.Xfer(topology.LinkIB, 0) != 0 {
		t.Error("zero bytes should be free")
	}
	if m.Xfer(topology.LinkSelf, 1<<20) != 0 {
		t.Error("self transfer should be free")
	}
	if m.P2P(3, 3, 1024) != 0 {
		t.Error("rank-to-self should be free")
	}
}

func TestXferNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative size did not panic")
		}
	}()
	worldModel(t, 1, mpiprofile.MV2GDR()).Xfer(topology.LinkNVLink, -1)
}

func TestXferMonotoneInSize(t *testing.T) {
	m := worldModel(t, 2, mpiprofile.MV2GDR())
	f := func(a, b uint32) bool {
		x, y := int(a%(64*MiB)), int(b%(64*MiB))
		if x > y {
			x, y = y, x
		}
		return m.Xfer(topology.LinkIB, x) <= m.Xfer(topology.LinkIB, y)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLatencyOrdering(t *testing.T) {
	// Small-message time: NVLink < XBus < IB for both libraries.
	for _, prof := range []*mpiprofile.Profile{mpiprofile.Spectrum(), mpiprofile.MV2GDR()} {
		m := worldModel(t, 2, prof)
		nv := m.Xfer(topology.LinkNVLink, 8)
		xb := m.Xfer(topology.LinkXBus, 8)
		ib := m.Xfer(topology.LinkIB, 8)
		if !(nv < xb && xb < ib) {
			t.Errorf("%s: latency ordering violated: nv=%g xb=%g ib=%g", prof.Name, nv, xb, ib)
		}
	}
}

func TestGDRBeatsStagingInterNode(t *testing.T) {
	spec := worldModel(t, 4, mpiprofile.Spectrum())
	mv2 := worldModel(t, 4, mpiprofile.MV2GDR())
	for _, n := range []int{8, 1024, 64 << 10, 1 << 20, 64 << 20} {
		if mv2.Xfer(topology.LinkIB, n) >= spec.Xfer(topology.LinkIB, n) {
			t.Errorf("n=%d: MV2-GDR (%g) not faster than Spectrum (%g)",
				n, mv2.Xfer(topology.LinkIB, n), spec.Xfer(topology.LinkIB, n))
		}
	}
}

func TestChunkSizeHasInteriorOptimum(t *testing.T) {
	// Sweeping MV2_CUDA_BLOCK_SIZE for a 64 MiB transfer must show a
	// minimum away from both extremes.
	times := map[int]float64{}
	sizes := []int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 8 << 20, 64 << 20}
	for _, cs := range sizes {
		p := mpiprofile.MV2GDR()
		p.CUDABlockSize = cs
		times[cs] = worldModel(t, 2, p).Xfer(topology.LinkIB, 64*MiB)
	}
	best := sizes[0]
	for _, cs := range sizes {
		if times[cs] < times[best] {
			best = cs
		}
	}
	if best == sizes[0] || best == sizes[len(sizes)-1] {
		t.Errorf("chunk-size optimum at boundary (%d): %v", best, times)
	}
}

func TestRingAllreduceSinglePair(t *testing.T) {
	m := worldModel(t, 1, mpiprofile.MV2GDR())
	ranks := []int{0, 1}
	n := 8 * MiB
	got := m.AllreduceRing(ranks, n)
	// p=2: 1 reduce-scatter step + 1 allgather step of n/2 each.
	step := m.Xfer(topology.LinkNVLink, n/2)
	want := (step + m.reduceTime(n/2)) + step
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ring p=2: got %g want %g", got, want)
	}
}

func TestAllreduceTrivialGroups(t *testing.T) {
	m := worldModel(t, 2, mpiprofile.MV2GDR())
	for _, alg := range concreteAlgs {
		if tm := m.Allreduce(alg, []int{3}, 1*MiB); tm != 0 {
			t.Errorf("%v: single-rank allreduce should be free, got %g", alg, tm)
		}
		if tm := m.Allreduce(alg, []int{0, 1, 2, 3}, 0); tm != 0 {
			t.Errorf("%v: zero-byte allreduce should be free, got %g", alg, tm)
		}
	}
}

func TestRecursiveDoublingBeatsRingSmall(t *testing.T) {
	m := worldModel(t, 4, mpiprofile.MV2GDR())
	ranks := m.WorldRanks()
	small := 4 << 10
	if rd, ring := m.AllreduceRecursiveDoubling(ranks, small), m.AllreduceRing(ranks, small); rd >= ring {
		t.Errorf("small message: recursive doubling (%g) should beat ring (%g)", rd, ring)
	}
}

func TestRingBeatsRecursiveDoublingLarge(t *testing.T) {
	m := worldModel(t, 4, mpiprofile.MV2GDR())
	ranks := m.WorldRanks()
	large := 64 * MiB
	if rd, ring := m.AllreduceRecursiveDoubling(ranks, large), m.AllreduceRing(ranks, large); ring >= rd {
		t.Errorf("large message: ring (%g) should beat recursive doubling (%g)", ring, rd)
	}
}

func TestHierarchicalBeatsFlatRingAtScale(t *testing.T) {
	// At 132 GPUs the flat ring pays 262 IB latencies per allreduce.
	// The torus variant must win for the paper-size fused buffer; the
	// leader variant (Horovod's HOROVOD_HIERARCHICAL_ALLREDUCE) wins
	// in the latency-bound small-buffer regime but loses bandwidth-
	// bound — exactly the trade-off tuning studies report.
	m := worldModel(t, 22, mpiprofile.MV2GDR())
	ranks := m.WorldRanks()

	large := 64 * MiB
	flatL := m.AllreduceRing(ranks, large)
	if torus := m.AllreduceHierTorus(ranks, large); torus >= flatL {
		t.Errorf("hier-torus (%g) not faster than flat ring (%g) at %d bytes", torus, flatL, large)
	}

	small := 1 * MiB
	flatS := m.AllreduceRing(ranks, small)
	if leader := m.AllreduceHierLeader(ranks, small); leader >= flatS {
		t.Errorf("hier-leader (%g) not faster than flat ring (%g) at %d bytes", leader, flatS, small)
	}
}

func TestHierarchicalSingleNodeFallsBack(t *testing.T) {
	m := worldModel(t, 1, mpiprofile.MV2GDR())
	ranks := m.WorldRanks()
	n := 16 * MiB
	if got, want := m.AllreduceHierLeader(ranks, n), m.AllreduceRing(ranks, n); got != want {
		t.Errorf("hier-leader single node: got %g want ring %g", got, want)
	}
	if got, want := m.AllreduceHierTorus(ranks, n), m.AllreduceRing(ranks, n); got != want {
		t.Errorf("hier-torus single node: got %g want ring %g", got, want)
	}
}

func TestAllreduceScalesWithNodes(t *testing.T) {
	// More nodes → longer allreduce for fixed n (same algorithm).
	n := 64 * MiB
	prev := 0.0
	for _, nodes := range []int{2, 4, 8, 16, 22} {
		m := worldModel(t, nodes, mpiprofile.MV2GDR())
		tm := m.AllreduceHierTorus(m.WorldRanks(), n)
		if tm <= prev {
			t.Errorf("allreduce time not increasing at %d nodes: %g <= %g", nodes, tm, prev)
		}
		prev = tm
	}
}

func TestAllreduceMV2FasterThanSpectrumEverywhere(t *testing.T) {
	for _, nodes := range []int{1, 2, 8, 22} {
		for _, n := range []int{8 << 10, 1 << 20, 64 << 20, 164 << 20} {
			spec := worldModel(t, nodes, mpiprofile.Spectrum())
			mv2 := worldModel(t, nodes, mpiprofile.MV2GDR())
			ranks := spec.WorldRanks()
			ts := spec.Allreduce(AlgAuto, ranks, n)
			tm := mv2.Allreduce(AlgAuto, ranks, n)
			if tm >= ts {
				t.Errorf("nodes=%d n=%d: MV2 (%g) not faster than Spectrum (%g)", nodes, n, tm, ts)
			}
		}
	}
}

func TestPickAuto(t *testing.T) {
	m := worldModel(t, 4, mpiprofile.MV2GDR())
	ranks := m.WorldRanks()
	if got := m.Pick(AlgAuto, ranks, 1024); got != AlgRecursiveDoubling {
		t.Errorf("small message picked %v", got)
	}
	if got := m.Pick(AlgAuto, ranks, 64*MiB); got != AlgHierTorus {
		t.Errorf("large multi-node message picked %v", got)
	}
	single := worldModel(t, 1, mpiprofile.MV2GDR())
	if got := single.Pick(AlgAuto, single.WorldRanks(), 64*MiB); got != AlgRing {
		t.Errorf("single-node large message picked %v", got)
	}
	if got := m.Pick(AlgRing, ranks, 10); got != AlgRing {
		t.Errorf("explicit algorithm overridden: %v", got)
	}
}

func TestAlgorithmNames(t *testing.T) {
	for _, a := range concreteAlgs {
		name := a.String()
		back, err := AlgorithmByName(name)
		if err != nil || back != a {
			t.Errorf("round trip failed for %v (%q): %v", a, name, err)
		}
	}
	if _, err := AlgorithmByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
	if Algorithm(42).String() != "Algorithm(42)" {
		t.Error("fallback String wrong")
	}
}

func TestNegotiationGrowsWithRanks(t *testing.T) {
	if NegotiationTime(1) != 0 {
		t.Error("single rank needs no negotiation")
	}
	prev := 0.0
	for _, p := range []int{2, 6, 24, 132} {
		tm := NegotiationTime(p)
		if tm <= prev {
			t.Errorf("negotiation time not increasing at p=%d", p)
		}
		prev = tm
	}
	// Sanity: 132-rank negotiation should be tens of microseconds,
	// not milliseconds.
	if n := NegotiationTime(132); n > 1e-3 || n < 1e-6 {
		t.Errorf("negotiation time for 132 ranks implausible: %g", n)
	}
}

// Property: all allreduce algorithms are monotone in message size.
func TestPropertyAllreduceMonotone(t *testing.T) {
	m := worldModel(t, 3, mpiprofile.Spectrum())
	ranks := m.WorldRanks()
	f := func(a, b uint32) bool {
		x, y := int(a%(32*MiB))+1, int(b%(32*MiB))+1
		if x > y {
			x, y = y, x
		}
		for _, alg := range concreteAlgs {
			if m.Allreduce(alg, ranks, x) > m.Allreduce(alg, ranks, y)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: P2P time is symmetric in rank order.
func TestPropertyP2PSymmetric(t *testing.T) {
	m := worldModel(t, 3, mpiprofile.MV2GDR())
	f := func(a, b uint8, n uint32) bool {
		ra, rb := int(a)%m.Mach.Ranks(), int(b)%m.Mach.Ranks()
		sz := int(n % (8 * MiB))
		return m.P2P(ra, rb, sz) == m.P2P(rb, ra, sz)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRingFlowsContiguousPlacement(t *testing.T) {
	m := worldModel(t, 4, mpiprofile.MV2GDR())
	if got := m.ringFlowsPerNIC(m.WorldRanks()); got != 1 {
		t.Errorf("contiguous ring should have 1 NIC flow per node, got %d", got)
	}
	// Round-robin placement puts every edge across nodes.
	strided := []int{0, 6, 12, 18, 1, 7, 13, 19}
	if got := m.ringFlowsPerNIC(strided); got < 2 {
		t.Errorf("strided ring should congest the NIC, got %d flows", got)
	}
}

func TestHierTwoLevelBeatsFlatRingAt1056(t *testing.T) {
	// The 176-node × 6-GPU sweep past the paper's 132 GPUs: the flat
	// ring pays 2·1055 IB latencies per allreduce, the topology-aware
	// two-level composition pays two NVLink ring phases plus a log-
	// depth inter-node phase. It must win across the fused-buffer
	// regime, and must also beat the fixed-algorithm hierarchical
	// variants at the paper's fusion threshold (the per-level pick is
	// the point of the algorithm).
	m := worldModel(t, 176, mpiprofile.MV2GDR())
	ranks := m.WorldRanks()
	for _, n := range []int{1 * MiB, 16 * MiB, 64 * MiB} {
		flat := m.AllreduceRing(ranks, n)
		two := m.AllreduceHierTwoLevel(ranks, n)
		if two >= flat {
			t.Errorf("hier-2level (%g) not faster than flat ring (%g) at %d bytes", two, flat, n)
		}
	}
	n := 64 * MiB
	two := m.AllreduceHierTwoLevel(ranks, n)
	if leader := m.AllreduceHierLeader(ranks, n); two >= leader {
		t.Errorf("hier-2level (%g) not faster than hier-leader (%g) at %d bytes", two, leader, n)
	}
}

func TestHierTwoLevelSingleNodeFallsBack(t *testing.T) {
	m := worldModel(t, 1, mpiprofile.MV2GDR())
	ranks := m.WorldRanks()
	n := 16 * MiB
	if got, want := m.AllreduceHierTwoLevel(ranks, n), m.AllreduceRing(ranks, n); got != want {
		t.Errorf("hier-2level single node: got %g want ring %g", got, want)
	}
}

func TestLevelSpecsMatchProfile(t *testing.T) {
	prof := mpiprofile.MV2GDR()
	m := worldModel(t, 2, prof)
	intra, inter := m.LevelSpecs()
	if !intra.Valid() || !inter.Valid() {
		t.Fatalf("invalid level specs: %+v / %+v", intra, inter)
	}
	// Full 6-GPU nodes span both triads, so the intra spec must be
	// X-Bus class, not NVLink class.
	if intra.AlphaSec != prof.LatIntraXBus {
		t.Errorf("intra alpha %g, want X-Bus %g", intra.AlphaSec, prof.LatIntraXBus)
	}
	if inter.BWBytesPerSec != prof.BWInter {
		t.Errorf("inter bandwidth %g, want %g", inter.BWBytesPerSec, prof.BWInter)
	}
	triad := newModel(t, topology.Machine{Nodes: 2, GPUsPer: 3}, prof)
	intra, _ = triad.LevelSpecs()
	if intra.AlphaSec != prof.LatIntraNVLink {
		t.Errorf("triad intra alpha %g, want NVLink %g", intra.AlphaSec, prof.LatIntraNVLink)
	}
}
