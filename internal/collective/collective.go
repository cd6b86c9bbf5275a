// Package collective implements real, data-carrying collective
// operations — the algorithms whose *costs* internal/netmodel models
// analytically. The same algorithm shapes exist in both packages; unit
// tests verify every implementation against a naive gather-reduce
// reference, which is what makes the distributed-training accuracy
// experiment trustworthy: gradients are combined by this code, not by
// a mock.
//
// All collectives operate over an explicit group of global ranks
// (which enables the hierarchical compositions) and reduce with
// summation — Horovod divides by world size afterwards to average.
//
// Misuse — a rank outside its group, mismatched buffer lengths, a
// machine/world mismatch — is reported as a returned error with
// context, never a panic: a panicking collective tears down every
// in-process rank at once, where an error lets the caller attribute
// the failure to one rank and unwind cleanly.
package collective

import (
	"fmt"

	"segscale/internal/telemetry"
	"segscale/internal/timeline"
	"segscale/internal/topology"
	"segscale/internal/transport"
)

// Tag bases keep concurrent phases of composed collectives from
// colliding. Each collective call consumes tags [base, base+steps).
const (
	tagRing   = 1 << 16
	tagRD     = 2 << 16
	tagNaive  = 3 << 16
	tagReduce = 4 << 16
	tagBcast  = 5 << 16
	tagGather = 6 << 16
)

// instrument opens a span and bumps the per-algorithm op/byte
// counters on the caller's probe. Uninstrumented communicators (nil
// probe, the default) pay one branch per nil-safe telemetry call.
func instrument(c *transport.Comm, phase, alg string, bytes int) telemetry.Span {
	p := c.Probe()
	if p == nil {
		return telemetry.Span{}
	}
	p.Counter("collective_ops_total").Inc()
	p.Counter("collective_payload_bytes").Add(float64(bytes))
	return p.Span(phase, alg)
}

// indexIn returns the caller's index within group; a rank outside the
// group is always a caller bug, reported as an error.
func indexIn(group []int, rank int) (int, error) {
	for i, r := range group {
		if r == rank {
			return i, nil
		}
	}
	return 0, fmt.Errorf("collective: rank %d not in group %v", rank, group)
}

// segment splits length n into p nearly-equal pieces; returns the
// [lo,hi) bounds of piece i. Earlier pieces get the remainder, the
// standard MPI decomposition.
func segment(n, p, i int) (lo, hi int) {
	base := n / p
	rem := n % p
	lo = i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return lo, lo + size
}

func addInto(dst, src []float32) error {
	if len(dst) != len(src) {
		return fmt.Errorf("collective: reduce length mismatch %d vs %d", len(dst), len(src))
	}
	for i, v := range src {
		dst[i] += v
	}
	return nil
}

// AllreduceNaive gathers every contribution to group[0], reduces, and
// broadcasts the result linearly. O(p) time and the reference other
// algorithms are verified against.
func AllreduceNaive(c *transport.Comm, group []int, buf []float32) error {
	sp := instrument(c, timeline.PhaseAllreduce, "naive", 4*len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allreduce naive: %w", err)
	}
	root := group[0]
	if me == 0 {
		for _, r := range group[1:] {
			got, err := c.Recv(r, tagNaive)
			if err != nil {
				return fmt.Errorf("allreduce naive: rank %d contribution: %w", r, err)
			}
			if err := addInto(buf, got); err != nil {
				return fmt.Errorf("allreduce naive: rank %d contribution: %w", r, err)
			}
		}
		for _, r := range group[1:] {
			if err := c.Send(r, tagNaive+1, buf); err != nil {
				return fmt.Errorf("allreduce naive: result to rank %d: %w", r, err)
			}
		}
		return nil
	}
	if err := c.Send(root, tagNaive, buf); err != nil {
		return fmt.Errorf("allreduce naive: contribution to root: %w", err)
	}
	if err := c.RecvInto(root, tagNaive+1, buf); err != nil {
		return fmt.Errorf("allreduce naive: result from root: %w", err)
	}
	return nil
}

// AllreduceRing is the bandwidth-optimal ring: p−1 reduce-scatter
// steps followed by p−1 allgather steps over ceil(n/p) segments.
func AllreduceRing(c *transport.Comm, group []int, buf []float32) error {
	p := len(group)
	if p <= 1 {
		return nil
	}
	sp := instrument(c, timeline.PhaseAllreduce, "ring", 4*len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allreduce ring: %w", err)
	}
	next := group[(me+1)%p]
	prev := group[(me-1+p)%p]
	n := len(buf)

	// Reduce-scatter: after step s, each rank holds the full sum of
	// segment (me+1) mod p ... converging to segment (me+1).
	for s := 0; s < p-1; s++ {
		sendSeg := ((me-s)%p + p) % p
		recvSeg := ((me-s-1)%p + p) % p
		slo, shi := segment(n, p, sendSeg)
		if err := c.Send(next, tagRing+s, buf[slo:shi]); err != nil {
			return fmt.Errorf("allreduce ring: reduce-scatter step %d: %w", s, err)
		}
		rlo, rhi := segment(n, p, recvSeg)
		got, err := c.Recv(prev, tagRing+s)
		if err != nil {
			return fmt.Errorf("allreduce ring: reduce-scatter step %d: %w", s, err)
		}
		if err := addInto(buf[rlo:rhi], got); err != nil {
			return fmt.Errorf("allreduce ring: reduce-scatter step %d: %w", s, err)
		}
	}
	// Allgather: circulate the completed segments.
	for s := 0; s < p-1; s++ {
		sendSeg := ((me-s+1)%p + p) % p
		recvSeg := ((me-s)%p + p) % p
		slo, shi := segment(n, p, sendSeg)
		if err := c.Send(next, tagRing+p+s, buf[slo:shi]); err != nil {
			return fmt.Errorf("allreduce ring: allgather step %d: %w", s, err)
		}
		rlo, rhi := segment(n, p, recvSeg)
		got, err := c.Recv(prev, tagRing+p+s)
		if err != nil {
			return fmt.Errorf("allreduce ring: allgather step %d: %w", s, err)
		}
		copy(buf[rlo:rhi], got)
	}
	return nil
}

// AllreduceRecursiveDoubling is the latency-optimal log₂(p)-step
// exchange, with the MPICH-style fold for non-power-of-two groups.
func AllreduceRecursiveDoubling(c *transport.Comm, group []int, buf []float32) error {
	p := len(group)
	if p <= 1 {
		return nil
	}
	sp := instrument(c, timeline.PhaseAllreduce, "recursive-doubling", 4*len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allreduce recursive-doubling: %w", err)
	}
	pow := 1
	for pow*2 <= p {
		pow *= 2
	}
	rem := p - pow

	// Fold: the first 2·rem ranks pair up; evens donate and go idle.
	newrank := -1
	switch {
	case me < 2*rem && me%2 == 0:
		if err := c.Send(group[me+1], tagRD, buf); err != nil {
			return fmt.Errorf("allreduce recursive-doubling: fold: %w", err)
		}
	case me < 2*rem: // odd
		got, err := c.Recv(group[me-1], tagRD)
		if err != nil {
			return fmt.Errorf("allreduce recursive-doubling: fold: %w", err)
		}
		if err := addInto(buf, got); err != nil {
			return fmt.Errorf("allreduce recursive-doubling: fold: %w", err)
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
			got, err := c.SendRecv(partner, tagRD+1+dist, buf, partner, tagRD+1+dist)
			if err != nil {
				return fmt.Errorf("allreduce recursive-doubling: distance %d: %w", dist, err)
			}
			if err := addInto(buf, got); err != nil {
				return fmt.Errorf("allreduce recursive-doubling: distance %d: %w", dist, err)
			}
		}
	}

	// Unfold: odd ranks return the result to their even partner.
	if me < 2*rem {
		if me%2 == 0 {
			if err := c.RecvInto(group[me+1], tagRD+2*pow, buf); err != nil {
				return fmt.Errorf("allreduce recursive-doubling: unfold: %w", err)
			}
		} else {
			if err := c.Send(group[me-1], tagRD+2*pow, buf); err != nil {
				return fmt.Errorf("allreduce recursive-doubling: unfold: %w", err)
			}
		}
	}
	return nil
}

// ReduceTree reduces every rank's buf into group[0] using a binomial
// tree (non-roots' buffers are left with partial sums).
func ReduceTree(c *transport.Comm, group []int, buf []float32) error {
	p := len(group)
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("reduce tree: %w", err)
	}
	for dist := 1; dist < p; dist *= 2 {
		if me%(2*dist) == 0 {
			src := me + dist
			if src < p {
				got, err := c.Recv(group[src], tagReduce+dist)
				if err != nil {
					return fmt.Errorf("reduce tree: from rank %d: %w", group[src], err)
				}
				if err := addInto(buf, got); err != nil {
					return fmt.Errorf("reduce tree: from rank %d: %w", group[src], err)
				}
			}
		} else if me%dist == 0 {
			if err := c.Send(group[me-dist], tagReduce+dist, buf); err != nil {
				return fmt.Errorf("reduce tree: to rank %d: %w", group[me-dist], err)
			}
			return nil
		}
	}
	return nil
}

// BcastTree broadcasts group[0]'s buf to the group via binomial tree.
func BcastTree(c *transport.Comm, group []int, buf []float32) error {
	sp := instrument(c, timeline.PhaseBcast, "binomial-tree", 4*len(buf))
	defer sp.End()
	p := len(group)
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("bcast tree: %w", err)
	}
	// Highest power of two ≥ p.
	top := 1
	for top < p {
		top *= 2
	}
	for dist := top / 2; dist >= 1; dist /= 2 {
		if me%(2*dist) == 0 {
			dst := me + dist
			if dst < p {
				if err := c.Send(group[dst], tagBcast+dist, buf); err != nil {
					return fmt.Errorf("bcast tree: to rank %d: %w", group[dst], err)
				}
			}
		} else if me%dist == 0 {
			if err := c.RecvInto(group[me-dist], tagBcast+dist, buf); err != nil {
				return fmt.Errorf("bcast tree: from rank %d: %w", group[me-dist], err)
			}
		}
	}
	return nil
}

// AllgatherRing circulates per-rank shards around the ring. shards[i]
// must be the shard contributed by group index i; only shards[me] need
// be filled on entry, and all are filled on return.
func AllgatherRing(c *transport.Comm, group []int, shards [][]float32) error {
	p := len(group)
	if p <= 1 {
		return nil
	}
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allgather ring: %w", err)
	}
	if len(shards) != p {
		return fmt.Errorf("allgather ring: %d shards for %d ranks", len(shards), p)
	}
	sp := instrument(c, timeline.PhaseAllgather, "ring", 4*len(shards[me]))
	defer sp.End()
	next := group[(me+1)%p]
	prev := group[(me-1+p)%p]
	for s := 0; s < p-1; s++ {
		sendIdx := ((me-s)%p + p) % p
		recvIdx := ((me-s-1)%p + p) % p
		if err := c.Send(next, tagGather+s, shards[sendIdx]); err != nil {
			return fmt.Errorf("allgather ring: step %d: %w", s, err)
		}
		got, err := c.Recv(prev, tagGather+s)
		if err != nil {
			return fmt.Errorf("allgather ring: step %d: %w", s, err)
		}
		shards[recvIdx] = got
	}
	return nil
}

// AllreduceHierLeader composes the node-leader hierarchy Horovod uses
// under HOROVOD_HIERARCHICAL_ALLREDUCE: binomial reduce to each node
// leader, recursive-doubling allreduce among the leaders, binomial
// broadcast back down. The machine layout decides the groups; the
// world must equal mach.Ranks() ranks.
func AllreduceHierLeader(c *transport.Comm, mach topology.Machine, buf []float32) error {
	if c.Size() != mach.Ranks() {
		return fmt.Errorf("collective: world %d != machine ranks %d", c.Size(), mach.Ranks())
	}
	node := mach.Node(c.Rank())
	local := mach.NodeRanks(node)
	if err := ReduceTree(c, local, buf); err != nil {
		return fmt.Errorf("hierarchical allreduce: node %d: %w", node, err)
	}
	if mach.IsLeader(c.Rank()) {
		if err := AllreduceRecursiveDoubling(c, mach.Leaders(), buf); err != nil {
			return fmt.Errorf("hierarchical allreduce: leaders: %w", err)
		}
	}
	if err := BcastTree(c, local, buf); err != nil {
		return fmt.Errorf("hierarchical allreduce: node %d: %w", node, err)
	}
	return nil
}
