// Binary16 variants of the allreduce algorithms — the real compressed
// wire format behind hvd.Compression.fp16. Payloads travel as
// []uint16 (2 bytes per element on the wire, which the transport
// byte counters account), and every reduce hop accumulates in
// float32: decode both halves, add, re-encode (fp16.AddInto — only
// the stored value is 16-bit, never the arithmetic). The encode/decode
// at the fused-buffer boundary happens exactly once, in the Horovod
// runtime's pack/unpack; these collectives never widen the wire.
//
// The schedules mirror the float32 implementations line for line —
// same segment decomposition, same fold/unfold, same step counts — so
// the compressed and uncompressed paths stay comparable in traces and
// in the attribution ledger. Only the tag bases differ, keeping the
// two payload kinds apart on the shared mailboxes.
package collective

import (
	"fmt"

	"segscale/internal/fp16"
	"segscale/internal/timeline"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// Tag bases for the binary16 collectives, disjoint from every float32
// base so a compressed phase can never consume an uncompressed
// message (the transport reports kind mismatches as errors anyway).
const (
	tagNaive16  = 10 << 16
	tagRing16   = 11 << 16
	tagRD16     = 12 << 16
	tagReduce16 = 13 << 16
	tagBcast16  = 14 << 16
	tagRab16    = 15 << 16
	tagHierRS16 = 16 << 16
	tagHierAG16 = 17 << 16
)

// AllreduceNaive16 gathers every contribution to group[0], reduces,
// and broadcasts the result linearly — the reference the other
// binary16 algorithms are verified against.
func AllreduceNaive16(c *transport.Comm, group []int, buf []uint16) error {
	sp := instrument(c, timeline.PhaseAllreduce, "naive-fp16", 2*len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allreduce naive fp16: %w", err)
	}
	root := group[0]
	if me == 0 {
		for _, r := range group[1:] {
			got, err := c.Recv16(r, tagNaive16)
			if err != nil {
				return fmt.Errorf("allreduce naive fp16: rank %d contribution: %w", r, err)
			}
			if err := fp16.AddInto(buf, got); err != nil {
				return fmt.Errorf("allreduce naive fp16: rank %d contribution: %w", r, err)
			}
		}
		for _, r := range group[1:] {
			if err := c.Send16(r, tagNaive16+1, buf); err != nil {
				return fmt.Errorf("allreduce naive fp16: result to rank %d: %w", r, err)
			}
		}
		return nil
	}
	if err := c.Send16(root, tagNaive16, buf); err != nil {
		return fmt.Errorf("allreduce naive fp16: contribution to root: %w", err)
	}
	if err := c.RecvInto16(root, tagNaive16+1, buf); err != nil {
		return fmt.Errorf("allreduce naive fp16: result from root: %w", err)
	}
	return nil
}

// AllreduceRing16 is AllreduceRing over the binary16 wire: p−1
// reduce-scatter steps and p−1 allgather steps over ceil(n/p)
// segments, each reduce hop accumulating in float32.
func AllreduceRing16(c *transport.Comm, group []int, buf []uint16) error {
	p := len(group)
	if p <= 1 {
		return nil
	}
	sp := instrument(c, timeline.PhaseAllreduce, "ring-fp16", 2*len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allreduce ring fp16: %w", err)
	}
	next := group[(me+1)%p]
	prev := group[(me-1+p)%p]
	n := len(buf)

	for s := 0; s < p-1; s++ {
		sendSeg := ((me-s)%p + p) % p
		recvSeg := ((me-s-1)%p + p) % p
		slo, shi := segment(n, p, sendSeg)
		if err := c.Send16(next, tagRing16+s, buf[slo:shi]); err != nil {
			return fmt.Errorf("allreduce ring fp16: reduce-scatter step %d: %w", s, err)
		}
		rlo, rhi := segment(n, p, recvSeg)
		got, err := c.Recv16(prev, tagRing16+s)
		if err != nil {
			return fmt.Errorf("allreduce ring fp16: reduce-scatter step %d: %w", s, err)
		}
		if err := fp16.AddInto(buf[rlo:rhi], got); err != nil {
			return fmt.Errorf("allreduce ring fp16: reduce-scatter step %d: %w", s, err)
		}
	}
	for s := 0; s < p-1; s++ {
		sendSeg := ((me-s+1)%p + p) % p
		recvSeg := ((me-s)%p + p) % p
		slo, shi := segment(n, p, sendSeg)
		if err := c.Send16(next, tagRing16+p+s, buf[slo:shi]); err != nil {
			return fmt.Errorf("allreduce ring fp16: allgather step %d: %w", s, err)
		}
		rlo, rhi := segment(n, p, recvSeg)
		got, err := c.Recv16(prev, tagRing16+p+s)
		if err != nil {
			return fmt.Errorf("allreduce ring fp16: allgather step %d: %w", s, err)
		}
		copy(buf[rlo:rhi], got)
	}
	return nil
}

// AllreduceRecursiveDoubling16 is the log₂(p)-step exchange over the
// binary16 wire, with the MPICH fold for non-power-of-two groups.
func AllreduceRecursiveDoubling16(c *transport.Comm, group []int, buf []uint16) error {
	p := len(group)
	if p <= 1 {
		return nil
	}
	sp := instrument(c, timeline.PhaseAllreduce, "recursive-doubling-fp16", 2*len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allreduce recursive-doubling fp16: %w", err)
	}
	pow := 1
	for pow*2 <= p {
		pow *= 2
	}
	rem := p - pow

	newrank := -1
	switch {
	case me < 2*rem && me%2 == 0:
		if err := c.Send16(group[me+1], tagRD16, buf); err != nil {
			return fmt.Errorf("allreduce recursive-doubling fp16: fold: %w", err)
		}
	case me < 2*rem: // odd
		got, err := c.Recv16(group[me-1], tagRD16)
		if err != nil {
			return fmt.Errorf("allreduce recursive-doubling fp16: fold: %w", err)
		}
		if err := fp16.AddInto(buf, got); err != nil {
			return fmt.Errorf("allreduce recursive-doubling fp16: fold: %w", err)
		}
		newrank = me / 2
	default:
		newrank = me - rem
	}

	if newrank >= 0 {
		old := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}
		for dist := 1; dist < pow; dist *= 2 {
			partner := group[old(newrank^dist)]
			got, err := c.SendRecv16(partner, tagRD16+1+dist, buf, partner, tagRD16+1+dist)
			if err != nil {
				return fmt.Errorf("allreduce recursive-doubling fp16: distance %d: %w", dist, err)
			}
			if err := fp16.AddInto(buf, got); err != nil {
				return fmt.Errorf("allreduce recursive-doubling fp16: distance %d: %w", dist, err)
			}
		}
	}

	if me < 2*rem {
		if me%2 == 0 {
			if err := c.RecvInto16(group[me+1], tagRD16+2*pow, buf); err != nil {
				return fmt.Errorf("allreduce recursive-doubling fp16: unfold: %w", err)
			}
		} else {
			if err := c.Send16(group[me-1], tagRD16+2*pow, buf); err != nil {
				return fmt.Errorf("allreduce recursive-doubling fp16: unfold: %w", err)
			}
		}
	}
	return nil
}

// AllreduceRabenseifner16 is Rabenseifner's recursive-halving
// reduce-scatter + recursive-doubling allgather over the binary16
// wire.
func AllreduceRabenseifner16(c *transport.Comm, group []int, buf []uint16) error {
	p := len(group)
	if p <= 1 {
		return nil
	}
	sp := instrument(c, timeline.PhaseAllreduce, "rabenseifner-fp16", 2*len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allreduce rabenseifner fp16: %w", err)
	}
	n := len(buf)

	pow := 1
	for pow*2 <= p {
		pow *= 2
	}
	rem := p - pow

	newrank := -1
	switch {
	case me < 2*rem && me%2 == 0:
		if err := c.Send16(group[me+1], tagRab16, buf); err != nil {
			return fmt.Errorf("allreduce rabenseifner fp16: fold: %w", err)
		}
	case me < 2*rem:
		got, err := c.Recv16(group[me-1], tagRab16)
		if err != nil {
			return fmt.Errorf("allreduce rabenseifner fp16: fold: %w", err)
		}
		if err := fp16.AddInto(buf, got); err != nil {
			return fmt.Errorf("allreduce rabenseifner fp16: fold: %w", err)
		}
		newrank = me / 2
	default:
		newrank = me - rem
	}

	if newrank >= 0 {
		old := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}
		lo, hi := 0, n
		step := 0
		for dist := 1; dist < pow; dist *= 2 {
			partner := group[old(newrank^dist)]
			mid := lo + (hi-lo)/2
			var sendLo, sendHi, keepLo, keepHi int
			if newrank&dist == 0 {
				sendLo, sendHi, keepLo, keepHi = mid, hi, lo, mid
			} else {
				sendLo, sendHi, keepLo, keepHi = lo, mid, mid, hi
			}
			got, err := c.SendRecv16(partner, tagRab16+1+step, buf[sendLo:sendHi], partner, tagRab16+1+step)
			if err != nil {
				return fmt.Errorf("allreduce rabenseifner fp16: halving step %d: %w", step, err)
			}
			if err := fp16.AddInto(buf[keepLo:keepHi], got); err != nil {
				return fmt.Errorf("allreduce rabenseifner fp16: halving step %d: %w", step, err)
			}
			lo, hi = keepLo, keepHi
			step++
		}

		type window struct{ lo, hi int }
		windows := make([]window, 0, step+1)
		wlo, whi := 0, n
		windows = append(windows, window{wlo, whi})
		for dist := 1; dist < pow; dist *= 2 {
			mid := wlo + (whi-wlo)/2
			if newrank&dist == 0 {
				whi = mid
			} else {
				wlo = mid
			}
			windows = append(windows, window{wlo, whi})
		}
		step--
		for dist := pow / 2; dist >= 1; dist /= 2 {
			partner := group[old(newrank^dist)]
			cur := windows[step+1]
			parent := windows[step]
			var partnerLo, partnerHi int
			if cur.lo == parent.lo {
				partnerLo, partnerHi = cur.hi, parent.hi
			} else {
				partnerLo, partnerHi = parent.lo, cur.lo
			}
			got, err := c.SendRecv16(partner, tagRab16+64+step, buf[cur.lo:cur.hi], partner, tagRab16+64+step)
			if err != nil {
				return fmt.Errorf("allreduce rabenseifner fp16: doubling step %d: %w", step, err)
			}
			copy(buf[partnerLo:partnerHi], got)
			step--
		}
	}

	if me < 2*rem {
		if me%2 == 0 {
			if err := c.RecvInto16(group[me+1], tagRab16+2048, buf); err != nil {
				return fmt.Errorf("allreduce rabenseifner fp16: unfold: %w", err)
			}
		} else {
			if err := c.Send16(group[me-1], tagRab16+2048, buf); err != nil {
				return fmt.Errorf("allreduce rabenseifner fp16: unfold: %w", err)
			}
		}
	}
	return nil
}

// ReduceTree16 reduces every rank's buf into group[0] via binomial
// tree (non-roots are left with partial sums).
func ReduceTree16(c *transport.Comm, group []int, buf []uint16) error {
	p := len(group)
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("reduce tree fp16: %w", err)
	}
	for dist := 1; dist < p; dist *= 2 {
		if me%(2*dist) == 0 {
			src := me + dist
			if src < p {
				got, err := c.Recv16(group[src], tagReduce16+dist)
				if err != nil {
					return fmt.Errorf("reduce tree fp16: from rank %d: %w", group[src], err)
				}
				if err := fp16.AddInto(buf, got); err != nil {
					return fmt.Errorf("reduce tree fp16: from rank %d: %w", group[src], err)
				}
			}
		} else if me%dist == 0 {
			if err := c.Send16(group[me-dist], tagReduce16+dist, buf); err != nil {
				return fmt.Errorf("reduce tree fp16: to rank %d: %w", group[me-dist], err)
			}
			return nil
		}
	}
	return nil
}

// BcastTree16 broadcasts group[0]'s buf to the group via binomial
// tree.
func BcastTree16(c *transport.Comm, group []int, buf []uint16) error {
	sp := instrument(c, timeline.PhaseBcast, "binomial-tree-fp16", 2*len(buf))
	defer sp.End()
	p := len(group)
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("bcast tree fp16: %w", err)
	}
	top := 1
	for top < p {
		top *= 2
	}
	for dist := top / 2; dist >= 1; dist /= 2 {
		if me%(2*dist) == 0 {
			dst := me + dist
			if dst < p {
				if err := c.Send16(group[dst], tagBcast16+dist, buf); err != nil {
					return fmt.Errorf("bcast tree fp16: to rank %d: %w", group[dst], err)
				}
			}
		} else if me%dist == 0 {
			if err := c.RecvInto16(group[me-dist], tagBcast16+dist, buf); err != nil {
				return fmt.Errorf("bcast tree fp16: from rank %d: %w", group[me-dist], err)
			}
		}
	}
	return nil
}

// levelFn16 maps a per-level algorithm choice to its binary16
// implementation.
func levelFn16(alg topology.LevelAlg) func(*transport.Comm, []int, []uint16) error {
	switch alg {
	case topology.LevelRecursiveDoubling:
		return AllreduceRecursiveDoubling16
	case topology.LevelRabenseifner:
		return AllreduceRabenseifner16
	default:
		return AllreduceRing16
	}
}

// AllreduceHierLeader16 is the node-leader hierarchy over the
// binary16 wire: binomial reduce to each node leader, recursive
// doubling among the leaders, binomial broadcast back down.
func AllreduceHierLeader16(c *transport.Comm, mach topology.Machine, buf []uint16) error {
	if c.Size() != mach.Ranks() {
		return fmt.Errorf("collective: world %d != machine ranks %d", c.Size(), mach.Ranks())
	}
	node := mach.Node(c.Rank())
	local := mach.NodeRanks(node)
	if err := ReduceTree16(c, local, buf); err != nil {
		return fmt.Errorf("hierarchical allreduce fp16: node %d: %w", node, err)
	}
	if mach.IsLeader(c.Rank()) {
		if err := AllreduceRecursiveDoubling16(c, mach.Leaders(), buf); err != nil {
			return fmt.Errorf("hierarchical allreduce fp16: leaders: %w", err)
		}
	}
	if err := BcastTree16(c, local, buf); err != nil {
		return fmt.Errorf("hierarchical allreduce fp16: node %d: %w", node, err)
	}
	return nil
}

// AllreduceHierTwoLevel16 is the topology-aware two-level allreduce
// over the binary16 wire (see AllreduceHierTwoLevel).
func AllreduceHierTwoLevel16(c *transport.Comm, mach topology.Machine, buf []uint16) error {
	if c.Size() != mach.Ranks() {
		return fmt.Errorf("collective: world %d != machine ranks %d", c.Size(), mach.Ranks())
	}
	groups := make([][]int, mach.Nodes)
	for n := range groups {
		groups[n] = mach.NodeRanks(n)
	}
	intra, inter := topology.SummitLinkSpecs()
	return AllreduceHierGroups16(c, groups, intra, inter, buf)
}

// AllreduceHierGroups16 is the two-level allreduce over an explicit
// node partition with binary16 payloads. The per-level algorithm pick
// is keyed on the element count, exactly like the float32 form, so a
// compressed run composes the same schedule as its uncompressed
// A/B partner — only the wire width differs.
func AllreduceHierGroups16(c *transport.Comm, groups [][]int, intra, inter topology.LinkSpec, buf []uint16) error {
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
	sp := instrument(c, timeline.PhaseAllreduce, "hier-2level-fp16", 2*len(buf))
	defer sp.End()

	local := groups[myNode]
	intraAlg := topology.PickLevelAlg(intra, g0, len(buf))
	if even && intraAlg == topology.LevelRing {
		return hierTorus16(c, groups, inter, buf, myNode, myLocal)
	}
	return hierLeader16(c, groups, inter, buf, local)
}

// hierLeader16 mirrors hierLeader over the binary16 wire.
func hierLeader16(c *transport.Comm, groups [][]int, inter topology.LinkSpec, buf []uint16, local []int) error {
	leaders := make([]int, len(groups))
	for n, grp := range groups {
		leaders[n] = grp[0]
	}
	if err := ReduceTree16(c, local, buf); err != nil {
		return fmt.Errorf("hier-2level leader fp16: reduce: %w", err)
	}
	if c.Rank() == local[0] {
		interAlg := topology.PickLevelAlg(inter, len(leaders), len(buf))
		if err := levelFn16(interAlg)(c, leaders, buf); err != nil {
			return fmt.Errorf("hier-2level leader fp16: inter-node %v: %w", interAlg, err)
		}
	}
	if err := BcastTree16(c, local, buf); err != nil {
		return fmt.Errorf("hier-2level leader fp16: bcast: %w", err)
	}
	return nil
}

// hierTorus16 mirrors hierTorus over the binary16 wire.
func hierTorus16(c *transport.Comm, groups [][]int, inter topology.LinkSpec, buf []uint16, myNode, me int) error {
	local := groups[myNode]
	g := len(local)
	n := len(buf)
	next := local[(me+1)%g]
	prev := local[(me-1+g)%g]

	for s := 0; s < g-1; s++ {
		sendSeg := ((me-s)%g + g) % g
		recvSeg := ((me-s-1)%g + g) % g
		slo, shi := segment(n, g, sendSeg)
		if err := c.Send16(next, tagHierRS16+s, buf[slo:shi]); err != nil {
			return fmt.Errorf("hier-2level torus fp16: reduce-scatter step %d: %w", s, err)
		}
		rlo, rhi := segment(n, g, recvSeg)
		got, err := c.Recv16(prev, tagHierRS16+s)
		if err != nil {
			return fmt.Errorf("hier-2level torus fp16: reduce-scatter step %d: %w", s, err)
		}
		if err := fp16.AddInto(buf[rlo:rhi], got); err != nil {
			return fmt.Errorf("hier-2level torus fp16: reduce-scatter step %d: %w", s, err)
		}
	}

	ownSeg := (me + 1) % g
	lo, hi := segment(n, g, ownSeg)
	if len(groups) > 1 {
		cross := make([]int, len(groups))
		for nd, grp := range groups {
			cross[nd] = grp[me]
		}
		interAlg := topology.PickLevelAlg(inter, len(cross), hi-lo)
		if err := levelFn16(interAlg)(c, cross, buf[lo:hi]); err != nil {
			return fmt.Errorf("hier-2level torus fp16: inter-node %v segment %d: %w", interAlg, ownSeg, err)
		}
	}

	for s := 0; s < g-1; s++ {
		sendSeg := ((me-s+1)%g + g) % g
		recvSeg := ((me-s)%g + g) % g
		slo, shi := segment(n, g, sendSeg)
		if err := c.Send16(next, tagHierAG16+s, buf[slo:shi]); err != nil {
			return fmt.Errorf("hier-2level torus fp16: allgather step %d: %w", s, err)
		}
		rlo, rhi := segment(n, g, recvSeg)
		got, err := c.Recv16(prev, tagHierAG16+s)
		if err != nil {
			return fmt.Errorf("hier-2level torus fp16: allgather step %d: %w", s, err)
		}
		copy(buf[rlo:rhi], got)
	}
	return nil
}
