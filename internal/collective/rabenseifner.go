package collective

import (
	"fmt"
	"math/bits"

	"segscale/internal/timeline"
	"segscale/internal/transport"
)

// AllreduceRabenseifner implements Rabenseifner's algorithm:
// recursive-halving reduce-scatter followed by recursive-doubling
// allgather. It has the ring's 2·(p−1)/p·n bandwidth term with only
// 2·log₂(p) latency steps — the shape MPI libraries pick for large
// messages on small-to-medium communicators. Non-power-of-two groups
// use the MPICH fold (evens donate to odds, then unfold).
func AllreduceRabenseifner[T Elem](c *transport.Comm, group []int, buf []T) error {
	if len(group) <= 1 {
		return nil
	}
	w := wireOf[T]()
	sp := instrument(c, timeline.PhaseAllreduce, w.spanRab, w.elemBytes*len(buf))
	defer sp.End()
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("%s: %w", w.errRab, err)
	}
	f, err := fold(c, w, group, me, w.tagRab, buf)
	if err != nil {
		return fmt.Errorf("%s: %w", w.errRab, err)
	}

	if f.rank >= 0 {
		// Reduce-scatter by recursive halving: each step trades half
		// of the currently-owned window with the partner and reduces
		// the half it keeps. windows[:depth] records the bounds visited
		// on the way down so the way up mirrors them exactly; a fixed
		// array, one entry per bit of f.pow, keeps it off the heap.
		type window struct{ lo, hi int }
		var windows [bits.UintSize]window
		windows[0] = window{0, len(buf)}
		depth := 1
		for dist := 1; dist < f.pow; dist *= 2 {
			partner := group[f.peer(dist)]
			step := depth - 1
			cur := windows[step]
			mid := cur.lo + (cur.hi-cur.lo)/2
			send, keep := window{mid, cur.hi}, window{cur.lo, mid} // keep the lower half, send the upper
			if f.rank&dist != 0 {
				send, keep = keep, send
			}
			if err := exchange(c, partner, w.tagRab+1+step, buf[send.lo:send.hi], buf[keep.lo:keep.hi], w.add); err != nil {
				return fmt.Errorf("%s: halving step %d: %w", w.errRab, step, err)
			}
			windows[depth] = keep
			depth++
		}

		// Allgather by recursive doubling: windows merge back in the
		// reverse order of the halving.
		for dist := f.pow / 2; dist >= 1; dist /= 2 {
			partner := group[f.peer(dist)]
			step := depth - 2
			cur := windows[step+1]  // what I own (fully reduced)
			parent := windows[step] // the window the exchange completes
			theirs := window{cur.hi, parent.hi}
			if cur.lo != parent.lo {
				theirs = window{parent.lo, cur.lo}
			}
			if err := exchange(c, partner, w.tagRab+64+step, buf[cur.lo:cur.hi], buf[theirs.lo:theirs.hi], nil); err != nil {
				return fmt.Errorf("%s: doubling step %d: %w", w.errRab, step, err)
			}
			depth = step + 1
		}
	}

	if err := unfold(c, group, me, w.tagRab+2048, f, buf); err != nil {
		return fmt.Errorf("%s: %w", w.errRab, err)
	}
	return nil
}
