package collective

import (
	"segscale/internal/fp16"
	"segscale/internal/transport"
)

// Elem is a wire element: a float32, or a binary16 word carried in a
// uint16. The encode/decode at the fused-buffer boundary happens once,
// in the Horovod runtime's pack/unpack; the collectives never widen the
// wire.
type Elem = transport.Elem

// wire is everything the schedules need that differs between the two
// wire formats, so that each schedule exists once: the reduce hop, the
// element width, and the constants in wireText. The transport picks its
// side of the wire from the element type by itself.
type wire[T Elem] struct {
	// add reduces src into dst. The binary16 hop decodes both halves,
	// adds in float32 and re-encodes: only the stored value is 16-bit,
	// never the arithmetic.
	add       func(dst, src []T) error
	elemBytes int
	wireText
}

// wireText is a wire's tag bases, span names and error prefixes.
//
// Tag bases keep the phases of composed collectives, and the two
// payload kinds, apart on the shared mailboxes; each collective call
// consumes tags [base, base+steps). The hierarchical compositions run
// the flat algorithms (under their own bases) over disjoint cross-node
// groups, so only the intra-node ring phases need bases of their own.
// faultinject.Plan draws faults from a hash that includes the tag: a
// changed base re-rolls every chaos golden.
//
// Span names and error prefixes are constants rather than built per
// call: a concatenated span name is a heap string per collective call
// on the binary16 wire, and tests and ledgers match on the text.
type wireText struct {
	tagRing, tagRD, tagReduce, tagBcast, tagRab, tagHierRS, tagHierAG int

	spanRing, spanRD, spanRab, spanBcast, spanHier string

	errRing, errRD, errRab, errReduce, errBcast string
	errHierLeader, errLeader, errTorus          string
}

var wire32 = wire[float32]{
	add:       addInto,
	elemBytes: 4,
	wireText: wireText{
		tagRing: 1 << 16, tagRD: 2 << 16, tagReduce: 4 << 16, tagBcast: 5 << 16,
		tagRab: 7 << 16, tagHierRS: 8 << 16, tagHierAG: 9 << 16,

		spanRing: "ring", spanRD: "recursive-doubling", spanRab: "rabenseifner",
		spanBcast: "binomial-tree", spanHier: "hier-2level",

		errRing: "allreduce ring", errRD: "allreduce recursive-doubling", errRab: "allreduce rabenseifner",
		errReduce: "reduce tree", errBcast: "bcast tree",
		errHierLeader: "hierarchical allreduce", errLeader: "hier-2level leader", errTorus: "hier-2level torus",
	},
}

var wire16 = wire[uint16]{
	add:       fp16.AddInto,
	elemBytes: 2,
	wireText: wireText{
		tagRing: 11 << 16, tagRD: 12 << 16, tagReduce: 13 << 16, tagBcast: 14 << 16,
		tagRab: 15 << 16, tagHierRS: 16 << 16, tagHierAG: 17 << 16,

		spanRing: "ring-fp16", spanRD: "recursive-doubling-fp16", spanRab: "rabenseifner-fp16",
		spanBcast: "binomial-tree-fp16", spanHier: "hier-2level-fp16",

		errRing: "allreduce ring fp16", errRD: "allreduce recursive-doubling fp16", errRab: "allreduce rabenseifner fp16",
		errReduce: "reduce tree fp16", errBcast: "bcast tree fp16",
		errHierLeader: "hierarchical allreduce fp16", errLeader: "hier-2level leader fp16", errTorus: "hier-2level torus fp16",
	},
}

// wireOf returns T's wire table. The switch is on a nil pointer, which
// converts to an interface without allocating.
func wireOf[T Elem]() *wire[T] {
	switch any((*T)(nil)).(type) {
	case *float32:
		return any(&wire32).(*wire[T])
	default:
		return any(&wire16).(*wire[T])
	}
}

// exchange sends data to peer, then receives peer's message under the
// same tag into dst: reduced with add, or copied when add is nil — one
// step of the doubling and halving schedules. The eager mailbox keeps
// it deadlock-free.
func exchange[T Elem](c *transport.Comm, peer, tag int, data, dst []T, add func(dst, src []T) error) error {
	if err := transport.Send(c, peer, tag, data); err != nil {
		return err
	}
	return transport.RecvReduce(c, peer, tag, dst, add)
}

// The binary16 instantiations bench/probes.go calls by name.
var (
	AllreduceRing16              = AllreduceRing[uint16]              // kept for bench/probes.go; goes with the next benchmark PR
	AllreduceRecursiveDoubling16 = AllreduceRecursiveDoubling[uint16] // kept for bench/probes.go; goes with the next benchmark PR
	AllreduceRabenseifner16      = AllreduceRabenseifner[uint16]      // kept for bench/probes.go; goes with the next benchmark PR
	AllreduceHierTwoLevel16      = AllreduceHierTwoLevel[uint16]      // kept for bench/probes.go; goes with the next benchmark PR
)
