package horovod

import "fmt"

// PlanFusion partitions tensors (given by size, in submission order)
// into fused-buffer groups the way Horovod's coordinator does: walk
// the ready list, packing consecutive tensors while the running total
// stays within the threshold; a tensor larger than the threshold gets
// a group of its own, and a group that reaches the threshold exactly
// is closed there. threshold ≤ 0 disables fusion (one tensor per
// group). A zero-size tensor is planned like any other; a negative
// size panics. Each returned group is a slice of indices into sizes.
func PlanFusion(sizes []int, threshold int) [][]int {
	return PlanFusionInto(nil, sizes, threshold)
}

// PlanFusionInto is PlanFusion recycling dst's storage: the returned
// plan reuses dst's backing array and the capacity of its previous
// inner slices, so a caller that plans every negotiation cycle (the
// performance simulator) allocates only while groups are still
// growing past their high-water marks. dst may be nil.
func PlanFusionInto(dst [][]int, sizes []int, threshold int) [][]int {
	// spare views dst's full capacity so inner slices already emitted
	// in earlier calls can be handed out again; out only ever grabs
	// slot len(out), which it has not yet overwritten.
	spare := dst[:cap(dst)]
	out := dst[:0]
	var cur []int
	if len(spare) > 0 {
		cur = spare[0][:0]
	}
	curBytes := 0
	for i, s := range sizes {
		if s < 0 {
			panic(fmt.Sprintf("horovod: negative tensor size at %d", i))
		}
		if threshold > 0 && len(cur) > 0 && curBytes+s > threshold {
			out = append(out, cur)
			cur, curBytes = nil, 0
			if len(out) < len(spare) {
				cur = spare[len(out)][:0]
			}
		}
		cur = append(cur, i)
		curBytes += s
		if threshold <= 0 || curBytes >= threshold {
			out = append(out, cur)
			cur, curBytes = nil, 0
			if len(out) < len(spare) {
				cur = spare[len(out)][:0]
			}
		}
	}
	if len(cur) > 0 {
		out = append(out, cur)
	}
	return out
}

// GroupBytes sums the sizes of one fusion group.
func GroupBytes(sizes []int, group []int) int {
	n := 0
	for _, i := range group {
		n += sizes[i]
	}
	return n
}
