package collective

import (
	"fmt"

	"segscale/internal/timeline"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// levelAllreduce runs a per-level algorithm choice's flat
// implementation over an explicit rank group. It calls rather than
// returns the implementation: inside generic code a function value of
// AllreduceRing[T] is a closure over T's dictionary, one heap object
// per call.
func levelAllreduce[T Elem](alg topology.LevelAlg, c *transport.Comm, group []int, buf []T) error {
	switch alg {
	case topology.LevelRecursiveDoubling:
		return AllreduceRecursiveDoubling(c, group, buf)
	case topology.LevelRabenseifner:
		return AllreduceRabenseifner(c, group, buf)
	default:
		return AllreduceRing(c, group, buf)
	}
}

// AllreduceHierTwoLevel is the topology-aware two-level hierarchical
// allreduce: it consults the machine's link parameters to pick the
// per-level algorithm (ring intra-node over NVLink at fused-buffer
// sizes, Rabenseifner or recursive doubling inter-node over IB), then
// composes the levels. The world must equal mach.Ranks() ranks laid
// out in machine order; elastic worlds with holes go through
// AllreduceHierGroups with explicit node groups instead.
func AllreduceHierTwoLevel[T Elem](c *transport.Comm, mach topology.Machine, buf []T) error {
	if c.Size() != mach.Ranks() {
		return fmt.Errorf("collective: world %d != machine ranks %d", c.Size(), mach.Ranks())
	}
	groups := make([][]int, mach.Nodes)
	for n := range groups {
		groups[n] = mach.NodeRanks(n)
	}
	intra, inter := topology.SummitLinkSpecs()
	return AllreduceHierGroups(c, groups, intra, inter, buf)
}

// AllreduceHierGroups runs a two-level allreduce over an explicit
// node partition: groups[i] lists the global ranks on node i, every
// participating rank appears in exactly one group, and all ranks must
// pass identical groups. Link specs for the two levels drive the
// per-level algorithm choice; the choice is a pure function of
// (specs, shape, len(buf)) — the element count, not the byte count, so
// a compressed run composes the same schedule as its uncompressed A/B
// partner — and all ranks agree on it without negotiation.
//
// Two compositions exist. When every node holds the same number of
// ranks and the intra level picks the ring, the torus composition
// runs: an intra-node ring reduce-scatter, then each local index
// allreduces its owned segment across nodes (all NICs active at
// once), then an intra-node ring allgather. Uneven node groups — or
// an intra pick that favours latency over bandwidth — fall back to
// the leader composition: binomial reduce to each node leader, the
// picked inter algorithm among leaders, binomial broadcast back down.
func AllreduceHierGroups[T Elem](c *transport.Comm, groups [][]int, intra, inter topology.LinkSpec, buf []T) error {
	nodes := len(groups)
	if nodes == 0 {
		return fmt.Errorf("collective: hierarchical allreduce with no node groups")
	}
	myNode, myLocal := -1, -1
	even := true
	g0 := len(groups[0])
	for n, grp := range groups {
		if len(grp) == 0 {
			return fmt.Errorf("collective: hierarchical allreduce: empty node group %d", n)
		}
		if len(grp) != g0 {
			even = false
		}
		for i, r := range grp {
			if r == c.Rank() {
				myNode, myLocal = n, i
			}
		}
	}
	if myNode < 0 {
		return fmt.Errorf("collective: rank %d not in any node group", c.Rank())
	}
	w := wireOf[T]()
	sp := instrument(c, timeline.PhaseAllreduce, w.spanHier, w.elemBytes*len(buf))
	defer sp.End()

	local := groups[myNode]
	intraAlg := topology.PickLevelAlg(intra, g0, len(buf))
	if even && intraAlg == topology.LevelRing {
		return hierTorus(c, w, groups, inter, buf, myNode, myLocal)
	}
	return hierLeader(c, w, groups, inter, buf, local)
}

// hierLeader: reduce to node leaders, allreduce among leaders with the
// picked inter algorithm, broadcast back down. Works for any node
// group shapes.
func hierLeader[T Elem](c *transport.Comm, w *wire[T], groups [][]int, inter topology.LinkSpec, buf []T, local []int) error {
	leaders := make([]int, len(groups))
	for n, grp := range groups {
		leaders[n] = grp[0]
	}
	if err := ReduceTree(c, local, buf); err != nil {
		return fmt.Errorf("%s: reduce: %w", w.errLeader, err)
	}
	if c.Rank() == local[0] {
		interAlg := topology.PickLevelAlg(inter, len(leaders), len(buf))
		if err := levelAllreduce(interAlg, c, leaders, buf); err != nil {
			return fmt.Errorf("%s: inter-node %v: %w", w.errLeader, interAlg, err)
		}
	}
	if err := BcastTree(c, local, buf); err != nil {
		return fmt.Errorf("%s: bcast: %w", w.errLeader, err)
	}
	return nil
}

// hierTorus: intra-node ring reduce-scatter, per-local-index
// inter-node allreduce of the owned segment, intra-node ring
// allgather. Requires even groups so segment boundaries agree across
// nodes. With one rank per node it degenerates to the flat inter
// algorithm over the whole buffer; with one node the two ring phases
// alone complete the allreduce.
func hierTorus[T Elem](c *transport.Comm, w *wire[T], groups [][]int, inter topology.LinkSpec, buf []T, myNode, me int) error {
	local := groups[myNode]
	g := len(local)
	if err := ringReduceScatter(c, w, local, me, w.tagHierRS, buf); err != nil {
		return fmt.Errorf("%s: %w", w.errTorus, err)
	}

	// Inter allreduce: ranks sharing a local index form a cross-node
	// group and reduce the segment they own. The groups are disjoint,
	// so all run concurrently — every node drives all its NICs.
	ownSeg := (me + 1) % g
	lo, hi := segment(len(buf), g, ownSeg)
	if len(groups) > 1 {
		cross := make([]int, len(groups))
		for nd, grp := range groups {
			cross[nd] = grp[me]
		}
		interAlg := topology.PickLevelAlg(inter, len(cross), hi-lo)
		if err := levelAllreduce(interAlg, c, cross, buf[lo:hi]); err != nil {
			return fmt.Errorf("%s: inter-node %v segment %d: %w", w.errTorus, interAlg, ownSeg, err)
		}
	}

	if err := ringAllgather(c, local, me, w.tagHierAG, buf); err != nil {
		return fmt.Errorf("%s: %w", w.errTorus, err)
	}
	return nil
}
