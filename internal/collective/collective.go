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
// Each schedule exists once, generic over the wire element (Elem:
// float32, or a binary16 word in a uint16). The transport's generic
// Send/RecvReduce carry either wire; what else differs — reduce hop,
// tag bases, span names, error prefixes — is one table per wire, in
// wire.go. Every receive consumes its payload through RecvReduce, so
// on a long-lived world the flat schedules allocate nothing.
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

// ringReduceScatter runs the p−1 reduce-scatter steps of a ring over
// buf's p segments under tags [tag, tag+p−1): afterwards ring index me
// holds the full sum of segment (me+1) mod p. Callers prefix the error.
func ringReduceScatter[T Elem](c *transport.Comm, w *wire[T], ring []int, me, tag int, buf []T) error {
	p, n := len(ring), len(buf)
	next, prev := ring[(me+1)%p], ring[(me-1+p)%p]
	for s := 0; s < p-1; s++ {
		slo, shi := segment(n, p, ((me-s)%p+p)%p)
		if err := transport.Send(c, next, tag+s, buf[slo:shi]); err != nil {
			return fmt.Errorf("reduce-scatter step %d: %w", s, err)
		}
		rlo, rhi := segment(n, p, ((me-s-1)%p+p)%p)
		if err := transport.RecvReduce(c, prev, tag+s, buf[rlo:rhi], w.add); err != nil {
			return fmt.Errorf("reduce-scatter step %d: %w", s, err)
		}
	}
	return nil
}

// ringAllgather circulates the segments ringReduceScatter completed,
// under tags [tag, tag+p−1). Callers prefix the error.
func ringAllgather[T Elem](c *transport.Comm, ring []int, me, tag int, buf []T) error {
	p, n := len(ring), len(buf)
	next, prev := ring[(me+1)%p], ring[(me-1+p)%p]
	for s := 0; s < p-1; s++ {
		slo, shi := segment(n, p, ((me-s+1)%p+p)%p)
		if err := transport.Send(c, next, tag+s, buf[slo:shi]); err != nil {
			return fmt.Errorf("allgather step %d: %w", s, err)
		}
		rlo, rhi := segment(n, p, ((me-s)%p+p)%p)
		if err := transport.RecvReduce(c, prev, tag+s, buf[rlo:rhi], nil); err != nil {
			return fmt.Errorf("allgather step %d: %w", s, err)
		}
	}
	return nil
}

// AllreduceRing is the bandwidth-optimal ring: p−1 reduce-scatter
// steps followed by p−1 allgather steps over ceil(n/p) segments.
func AllreduceRing[T Elem](c *transport.Comm, group []int, buf []T) error {
	p := len(group)
	if p <= 1 {
		return nil
	}
	w := wireOf[T]()
	sp := instrument(c, timeline.PhaseAllreduce, w.spanRing, w.elemBytes*len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err == nil {
		err = ringReduceScatter(c, w, group, me, w.tagRing, buf)
	}
	if err == nil {
		err = ringAllgather(c, group, me, w.tagRing+p, buf)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.errRing, err)
	}
	return nil
}

// folded is a rank's place after the MPICH fold that recursive
// doubling and Rabenseifner run on non-power-of-two groups: the first
// 2·rem ranks pair up, each even one donates its buffer to the odd one
// above it and sits out (rank −1), and the pow = p − rem ranks left
// renumber densely.
type folded struct{ pow, rem, rank int }

// peer returns the group index of the active rank at distance dist.
func (f folded) peer(dist int) int {
	nr := f.rank ^ dist
	if nr < f.rem {
		return nr*2 + 1
	}
	return nr + f.rem
}

// fold runs the fold under tag. Callers prefix the error.
func fold[T Elem](c *transport.Comm, w *wire[T], group []int, me, tag int, buf []T) (folded, error) {
	f := folded{pow: 1}
	for f.pow*2 <= len(group) {
		f.pow *= 2
	}
	f.rem = len(group) - f.pow
	switch {
	case me < 2*f.rem && me%2 == 0:
		f.rank = -1
		if err := transport.Send(c, group[me+1], tag, buf); err != nil {
			return f, fmt.Errorf("fold: %w", err)
		}
	case me < 2*f.rem:
		f.rank = me / 2
		if err := transport.RecvReduce(c, group[me-1], tag, buf, w.add); err != nil {
			return f, fmt.Errorf("fold: %w", err)
		}
	default:
		f.rank = me - f.rem
	}
	return f, nil
}

// unfold returns the result from each odd rank of a folded pair to the
// even one that sat out. Callers prefix the error.
func unfold[T Elem](c *transport.Comm, group []int, me, tag int, f folded, buf []T) error {
	if me >= 2*f.rem {
		return nil
	}
	var err error
	if me%2 == 0 {
		err = transport.RecvReduce(c, group[me+1], tag, buf, nil)
	} else {
		err = transport.Send(c, group[me-1], tag, buf)
	}
	if err != nil {
		return fmt.Errorf("unfold: %w", err)
	}
	return nil
}

// AllreduceRecursiveDoubling is the latency-optimal log₂(p)-step
// exchange, with the MPICH-style fold for non-power-of-two groups.
func AllreduceRecursiveDoubling[T Elem](c *transport.Comm, group []int, buf []T) error {
	if len(group) <= 1 {
		return nil
	}
	w := wireOf[T]()
	sp := instrument(c, timeline.PhaseAllreduce, w.spanRD, w.elemBytes*len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("%s: %w", w.errRD, err)
	}
	f, err := fold(c, w, group, me, w.tagRD, buf)
	if err != nil {
		return fmt.Errorf("%s: %w", w.errRD, err)
	}
	if f.rank >= 0 {
		for dist := 1; dist < f.pow; dist *= 2 {
			partner := group[f.peer(dist)]
			if err := exchange(c, partner, w.tagRD+1+dist, buf, buf, w.add); err != nil {
				return fmt.Errorf("%s: distance %d: %w", w.errRD, dist, err)
			}
		}
	}
	if err := unfold(c, group, me, w.tagRD+2*f.pow, f, buf); err != nil {
		return fmt.Errorf("%s: %w", w.errRD, err)
	}
	return nil
}

// ReduceTree reduces every rank's buf into group[0] using a binomial
// tree (non-roots' buffers are left with partial sums).
func ReduceTree[T Elem](c *transport.Comm, group []int, buf []T) error {
	w := wireOf[T]()
	p := len(group)
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("%s: %w", w.errReduce, err)
	}
	for dist := 1; dist < p; dist *= 2 {
		if me%(2*dist) == 0 {
			src := me + dist
			if src < p {
				if err := transport.RecvReduce(c, group[src], w.tagReduce+dist, buf, w.add); err != nil {
					return fmt.Errorf("%s: from rank %d: %w", w.errReduce, group[src], err)
				}
			}
		} else if me%dist == 0 {
			if err := transport.Send(c, group[me-dist], w.tagReduce+dist, buf); err != nil {
				return fmt.Errorf("%s: to rank %d: %w", w.errReduce, group[me-dist], err)
			}
			return nil
		}
	}
	return nil
}

// BcastTree broadcasts group[0]'s buf to the group via binomial tree.
func BcastTree[T Elem](c *transport.Comm, group []int, buf []T) error {
	w := wireOf[T]()
	sp := instrument(c, timeline.PhaseBcast, w.spanBcast, w.elemBytes*len(buf))
	defer sp.End()
	p := len(group)
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("%s: %w", w.errBcast, err)
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
				if err := transport.Send(c, group[dst], w.tagBcast+dist, buf); err != nil {
					return fmt.Errorf("%s: to rank %d: %w", w.errBcast, group[dst], err)
				}
			}
		} else if me%dist == 0 {
			if err := transport.RecvReduce(c, group[me-dist], w.tagBcast+dist, buf, nil); err != nil {
				return fmt.Errorf("%s: from rank %d: %w", w.errBcast, group[me-dist], err)
			}
		}
	}
	return nil
}

// AllreduceHierLeader composes the node-leader hierarchy Horovod uses
// under HOROVOD_HIERARCHICAL_ALLREDUCE: binomial reduce to each node
// leader, recursive-doubling allreduce among the leaders, binomial
// broadcast back down. The machine layout decides the groups; the
// world must equal mach.Ranks() ranks.
func AllreduceHierLeader[T Elem](c *transport.Comm, mach topology.Machine, buf []T) error {
	if c.Size() != mach.Ranks() {
		return fmt.Errorf("collective: world %d != machine ranks %d", c.Size(), mach.Ranks())
	}
	w := wireOf[T]()
	node := mach.Node(c.Rank())
	local := mach.NodeRanks(node)
	if err := ReduceTree(c, local, buf); err != nil {
		return fmt.Errorf("%s: node %d: %w", w.errHierLeader, node, err)
	}
	if mach.IsLeader(c.Rank()) {
		if err := AllreduceRecursiveDoubling(c, mach.Leaders(), buf); err != nil {
			return fmt.Errorf("%s: leaders: %w", w.errHierLeader, err)
		}
	}
	if err := BcastTree(c, local, buf); err != nil {
		return fmt.Errorf("%s: node %d: %w", w.errHierLeader, node, err)
	}
	return nil
}
