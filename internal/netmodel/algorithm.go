package netmodel

import "fmt"

// Algorithm names an allreduce implementation strategy.
type Algorithm int

const (
	// AlgAuto lets the model pick by message size and group span, the
	// way MPI libraries select internally.
	AlgAuto Algorithm = iota
	// AlgRing is the bandwidth-optimal ring.
	AlgRing
	// AlgRecursiveDoubling is the latency-optimal log-step exchange.
	AlgRecursiveDoubling
	// AlgRabenseifner is reduce-scatter + allgather with log latency.
	AlgRabenseifner
	// AlgHierLeader is Horovod's hierarchical allreduce (node leaders).
	AlgHierLeader
	// AlgHierTorus is the two-level reduce-scatter/ring/allgather.
	AlgHierTorus
	// AlgHierTwoLevel is the topology-aware two-level allreduce: each
	// level's algorithm is picked from the machine's link parameters.
	AlgHierTwoLevel
)

// algNames is indexed by Algorithm.
var algNames = [...]string{
	AlgAuto:              "auto",
	AlgRing:              "ring",
	AlgRecursiveDoubling: "recursive-doubling",
	AlgRabenseifner:      "rabenseifner",
	AlgHierLeader:        "hier-leader",
	AlgHierTorus:         "hier-torus",
	AlgHierTwoLevel:      "hier-2level",
}

func (a Algorithm) String() string {
	if a >= 0 && int(a) < len(algNames) {
		return algNames[a]
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// AlgorithmByName parses an algorithm name.
func AlgorithmByName(s string) (Algorithm, error) {
	for a, name := range algNames {
		if name == s {
			return Algorithm(a), nil
		}
	}
	return AlgAuto, fmt.Errorf("netmodel: unknown allreduce algorithm %q", s)
}

// smallMessageLimit is the size below which latency-optimal
// algorithms win and libraries switch to recursive doubling.
const smallMessageLimit = 64 << 10

// Pick resolves AlgAuto for a given group and message size.
func (m *Model) Pick(alg Algorithm, ranks []int, n int) Algorithm {
	if alg != AlgAuto {
		return alg
	}
	if n <= smallMessageLimit {
		return AlgRecursiveDoubling
	}
	if m.spansNodes(ranks) && m.Mach.GPUsPer > 1 {
		return AlgHierTorus
	}
	return AlgRing
}

// Allreduce returns the modelled time for an allreduce of n bytes over
// the group using the given algorithm (resolving AlgAuto).
func (m *Model) Allreduce(alg Algorithm, ranks []int, n int) float64 {
	switch m.Pick(alg, ranks, n) {
	case AlgRing:
		return m.AllreduceRing(ranks, n)
	case AlgRecursiveDoubling:
		return m.AllreduceRecursiveDoubling(ranks, n)
	case AlgRabenseifner:
		return m.AllreduceRabenseifner(ranks, n)
	case AlgHierLeader:
		return m.AllreduceHierLeader(ranks, n)
	case AlgHierTorus:
		return m.AllreduceHierTorus(ranks, n)
	case AlgHierTwoLevel:
		return m.AllreduceHierTwoLevel(ranks, n)
	default:
		panic("netmodel: unresolved algorithm")
	}
}

// WorldRanks returns 0..Ranks-1 for the model's machine.
func (m *Model) WorldRanks() []int {
	out := make([]int, m.Mach.Ranks())
	for i := range out {
		out[i] = i
	}
	return out
}
