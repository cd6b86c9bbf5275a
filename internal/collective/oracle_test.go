package collective

import (
	"fmt"

	"segscale/internal/transport"
)

// The naive reference's tag bases, the values it had while it lived
// beside the algorithms it verifies (the chaos property test draws
// faults from a hash that includes the tag).
const (
	tagNaive   = 3 << 16
	tagNaive16 = 10 << 16
)

// AllreduceNaive gathers every contribution to group[0], reduces, and
// broadcasts the result linearly. O(p) time and the reference the
// other algorithms are verified against, on either wire.
func AllreduceNaive[T Elem](c *transport.Comm, group []int, buf []T) error {
	w := wireOf[T]()
	tag := tagNaive
	if w.elemBytes == 2 {
		tag = tagNaive16
	}
	me, err := indexIn(group, c.Rank())
	if err != nil {
		return fmt.Errorf("allreduce naive: %w", err)
	}
	root := group[0]
	if me == 0 {
		for _, r := range group[1:] {
			if err := transport.RecvReduce(c, r, tag, buf, w.add); err != nil {
				return fmt.Errorf("allreduce naive: rank %d contribution: %w", r, err)
			}
		}
		for _, r := range group[1:] {
			if err := transport.Send(c, r, tag+1, buf); err != nil {
				return fmt.Errorf("allreduce naive: result to rank %d: %w", r, err)
			}
		}
		return nil
	}
	if err := transport.Send(c, root, tag, buf); err != nil {
		return fmt.Errorf("allreduce naive: contribution to root: %w", err)
	}
	if err := transport.RecvReduce(c, root, tag+1, buf, nil); err != nil {
		return fmt.Errorf("allreduce naive: result from root: %w", err)
	}
	return nil
}
