package netmodel

import "segscale/internal/topology"

// Hierarchical allreduce variants. Horovod (0.16–0.19, the paper's
// era) exposes HOROVOD_HIERARCHICAL_ALLREDUCE, which composes an
// intra-node phase on the fast NVLink fabric with an inter-node phase
// on InfiniBand. We model the two shapes found in practice.

// AllreduceHierLeader is Horovod's classic hierarchical allreduce:
//
//  1. intra-node reduce of the full buffer to the node leader,
//  2. allreduce of the full buffer among the node leaders over IB,
//  3. intra-node broadcast of the result.
//
// Only one flow per NIC, but the inter-node phase carries the whole
// buffer.
func (m *Model) AllreduceHierLeader(ranks []int, n int) float64 {
	groups, leaders := m.splitByNode(ranks)
	if len(groups) <= 1 {
		// Single node: plain intra-node ring.
		return m.AllreduceRing(ranks, n)
	}
	var intraReduce, intraBcast float64
	for _, g := range groups {
		if t := m.ReduceScatterRing(g, n) + m.AllgatherRing(g, n); t > intraReduce {
			// Reduce-to-leader costs about a reduce-scatter plus a
			// gather of segments to the root; ring RS+AG is the
			// standard NCCL-style estimate.
			intraReduce = t
		}
		if t := m.Bcast(g, n); t > intraBcast {
			intraBcast = t
		}
	}
	inter := m.AllreduceRing(leaders, n)
	return intraReduce + inter + intraBcast
}

// AllreduceHierTorus is the bandwidth-optimal two-level variant:
//
//  1. intra-node reduce-scatter (each local rank owns n/g),
//  2. g concurrent inter-node ring allreduces, one per local rank,
//     each over its shard — all g flows share the NIC,
//  3. intra-node allgather.
//
// Inter-node volume per NIC drops to 2(nodes−1)/nodes · n instead of
// the leader variant's same volume at 1/g of the latency exposure —
// but the per-flow bandwidth is also 1/g, so the bandwidth terms
// match and the win is in latency and overlap granularity.
func (m *Model) AllreduceHierTorus(ranks []int, n int) float64 {
	groups, _ := m.splitByNode(ranks)
	if len(groups) <= 1 {
		return m.AllreduceRing(ranks, n)
	}
	g := len(groups[0])
	shard := (n + g - 1) / g
	var intraRS, intraAG float64
	for _, grp := range groups {
		if t := m.ReduceScatterRing(grp, n); t > intraRS {
			intraRS = t
		}
		if t := m.AllgatherRing(grp, n); t > intraAG {
			intraAG = t
		}
	}
	// One inter-node ring per local-rank index, concurrent, sharing
	// the NIC g ways.
	nodes := len(groups)
	seg := (shard + nodes - 1) / nodes
	step := m.xferShared(topology.LinkIB, seg, g)
	inter := float64(nodes-1)*(step+m.reduceTime(seg)) + float64(nodes-1)*step
	return intraRS + inter + intraAG
}

// LevelSpecs derives the α–β link specs of the two hierarchy levels
// from the MPI profile, for the per-level algorithm choice. The intra
// spec uses the worst intra-node hop (X-Bus once a node group spans
// both triads, NVLink otherwise); the inter spec is the GPU-direct IB
// path.
func (m *Model) LevelSpecs() (intra, inter topology.LinkSpec) {
	ik := topology.LinkNVLink
	if m.Mach.GPUsPer > topology.GPUsPerTriad {
		ik = topology.LinkXBus
	}
	a, bw := m.LinkParams(ik)
	intra = topology.LinkSpec{AlphaSec: a, BWBytesPerSec: bw}
	a, bw = m.LinkParams(topology.LinkIB)
	inter = topology.LinkSpec{AlphaSec: a, BWBytesPerSec: bw}
	return intra, inter
}

// AllreduceHierTwoLevel prices the topology-aware two-level allreduce
// implemented by collective.AllreduceHierTwoLevel: the per-level
// algorithm is picked from the machine's link parameters (the same
// PickLevelAlg decision the data-carrying code makes), then the levels
// compose either as the torus (even groups, ring intra pick) or as the
// leader hierarchy. The pick depends on the buffer size, so a fusion
// sweep moves through latency-lean and bandwidth-lean regimes exactly
// as the real implementation would.
func (m *Model) AllreduceHierTwoLevel(ranks []int, n int) float64 {
	groups, leaders := m.splitByNode(ranks)
	if len(groups) <= 1 {
		return m.AllreduceRing(ranks, n)
	}
	intraSpec, interSpec := m.LevelSpecs()
	g0 := len(groups[0])
	even := true
	for _, g := range groups {
		if len(g) != g0 {
			even = false
			break
		}
	}
	nodes := len(groups)
	if even && topology.PickLevelAlg(intraSpec, g0, n/4) == topology.LevelRing {
		shard := (n + g0 - 1) / g0
		var intraRS, intraAG float64
		for _, grp := range groups {
			if t := m.ReduceScatterRing(grp, n); t > intraRS {
				intraRS = t
			}
			if t := m.AllgatherRing(grp, n); t > intraAG {
				intraAG = t
			}
		}
		interAlg := topology.PickLevelAlg(interSpec, nodes, shard/4)
		return intraRS + m.torusInterCost(interAlg, nodes, shard, g0) + intraAG
	}
	var intraReduce, intraBcast float64
	for _, g := range groups {
		if t := m.ReduceScatterRing(g, n) + m.AllgatherRing(g, n); t > intraReduce {
			intraReduce = t
		}
		if t := m.Bcast(g, n); t > intraBcast {
			intraBcast = t
		}
	}
	var inter float64
	switch topology.PickLevelAlg(interSpec, len(leaders), n/4) {
	case topology.LevelRecursiveDoubling:
		inter = m.AllreduceRecursiveDoubling(leaders, n)
	case topology.LevelRabenseifner:
		inter = m.AllreduceRabenseifner(leaders, n)
	default:
		inter = m.AllreduceRing(leaders, n)
	}
	return intraReduce + inter + intraBcast
}

// torusInterCost prices the concurrent inter-node phase of the torus
// composition: one allreduce of `shard` bytes over `nodes` ranks per
// local index, all `flows` of them sharing each NIC.
func (m *Model) torusInterCost(alg topology.LevelAlg, nodes, shard, flows int) float64 {
	if nodes <= 1 || shard == 0 {
		return 0
	}
	pow := 1
	for pow*2 <= nodes {
		pow *= 2
	}
	switch alg {
	case topology.LevelRecursiveDoubling:
		total := 0.0
		if pow != nodes {
			total += 2 * (m.xferShared(topology.LinkIB, shard, flows) + m.reduceTime(shard))
		}
		for dist := 1; dist < pow; dist *= 2 {
			total += m.xferShared(topology.LinkIB, shard, flows) + m.reduceTime(shard)
		}
		return total
	case topology.LevelRabenseifner:
		total := 0.0
		if pow != nodes {
			total += 2 * (m.xferShared(topology.LinkIB, shard, flows) + m.reduceTime(shard))
		}
		payload := shard / 2
		for dist := 1; dist < pow; dist *= 2 {
			total += m.xferShared(topology.LinkIB, payload, flows) + m.reduceTime(payload)
			payload /= 2
			if payload == 0 {
				payload = 1
			}
		}
		payload = shard / pow
		if payload == 0 {
			payload = 1
		}
		for dist := pow / 2; dist >= 1; dist /= 2 {
			total += m.xferShared(topology.LinkIB, payload, flows)
			payload *= 2
		}
		return total
	default: // ring
		seg := (shard + nodes - 1) / nodes
		step := m.xferShared(topology.LinkIB, seg, flows)
		return float64(nodes-1)*(step+m.reduceTime(seg)) + float64(nodes-1)*step
	}
}

// splitByNode partitions the group into per-node sub-groups and
// returns the node-leader ranks (lowest rank per node). The result
// for the most recent rank group is memoized (callers treat it as
// read-only): pricing one fused buffer used to rebuild this partition
// from a map, and at 132 GPUs that map dominated the simulator's
// allocation profile.
func (m *Model) splitByNode(ranks []int) (groups [][]int, leaders []int) {
	if c := &m.split; len(c.ranks) == len(ranks) && len(ranks) > 0 {
		same := true
		for i, r := range ranks {
			if c.ranks[i] != r {
				same = false
				break
			}
		}
		if same {
			return c.groups, c.leaders
		}
	}
	byNode := map[int][]int{}
	var order []int
	for _, r := range ranks {
		n := m.Mach.Node(r)
		if _, ok := byNode[n]; !ok {
			order = append(order, n)
		}
		byNode[n] = append(byNode[n], r)
	}
	for _, n := range order {
		g := byNode[n]
		groups = append(groups, g)
		leaders = append(leaders, g[0])
	}
	m.split.ranks = append(m.split.ranks[:0], ranks...)
	m.split.groups = groups
	m.split.leaders = leaders
	return groups, leaders
}
