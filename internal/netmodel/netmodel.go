// Package netmodel turns an MPI profile plus a Summit topology into
// transfer times: point-to-point messages, and analytic cost models
// for every collective algorithm the reproduction uses (ring,
// recursive doubling, Rabenseifner, binomial broadcast, and the two
// hierarchical allreduce variants Horovod offers).
//
// All times are virtual seconds. The models are classic α–β(–γ)
// LogGP-style costs extended with the behaviours the paper's tuning
// targets: rendezvous handshakes, GPU-direct vs host-staged paths,
// chunk-pipelined large-message protocols (MV2_CUDA_BLOCK_SIZE), and
// NIC sharing when several ranks of a node communicate off-node at
// once.
package netmodel

import (
	"fmt"
	"math"

	"segscale/internal/mpiprofile"
	"segscale/internal/topology"
)

// Per-chunk software overhead of the pipelined large-message protocol
// (descriptor post + completion handling). This is what makes
// MV2_CUDA_BLOCK_SIZE have an interior optimum: small chunks pay this
// many times; big chunks pay pipeline-fill latency instead.
const chunkOverheadSec = 0.5e-6

// Host-path latency used by tiny coordination messages (Horovod
// negotiation), which travel CPU-to-CPU regardless of MPI library.
const hostAlphaSec = 1.4e-6

// Coordinator per-rank processing cost during a negotiation round.
const negotiatePerRank = 120e-9

// Model computes communication times for one (machine, MPI library)
// pair. The cost methods are pure, but the model memoizes the
// per-node partition of the most recent rank group (see splitByNode),
// so a Model must not be shared across goroutines without external
// locking. The performance simulator — the only repeated caller — is
// single-threaded by design.
type Model struct {
	Mach topology.Machine
	Prof *mpiprofile.Profile

	// ElemBytes is the wire width of one payload element: 4 (float32,
	// the zero-value default) or 2 (binary16 under fp16 compression).
	// The byte counts fed to the cost methods already reflect the wire
	// width; ElemBytes only converts bytes back to element counts for
	// the reduce-flops term, so a compressed buffer reduces the same
	// number of elements it carries.
	ElemBytes int

	// split memoizes splitByNode for the last rank group: a simulation
	// prices thousands of collectives over the same world, and the
	// partition is a pure function of the ranks.
	split struct {
		ranks   []int
		groups  [][]int
		leaders []int
	}
	// flowScratch backs ringFlowsPerNIC's per-node flow counting so
	// pricing a fused buffer does not allocate a map per call.
	flowScratch map[int]int
}

// New builds a model, validating its inputs.
func New(m topology.Machine, p *mpiprofile.Profile) (*Model, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Model{Mach: m, Prof: p}, nil
}

// LinkParams returns the (latency, bandwidth) the profile achieves on
// a link kind for GPU-resident buffers. For a non-GPU-direct library
// the inter-node path degrades to the host-staged parameters.
func (m *Model) LinkParams(kind topology.LinkKind) (alpha, bw float64) {
	p := m.Prof
	switch kind {
	case topology.LinkSelf:
		return 0, math.Inf(1)
	case topology.LinkNVLink:
		return p.LatIntraNVLink, p.BWNVLink
	case topology.LinkXBus:
		return p.LatIntraXBus, p.BWXBus
	case topology.LinkPCIeHost:
		return p.LatInterGPU + p.LatHostStage, p.BWStaged
	case topology.LinkIB:
		if p.GPUDirect {
			return p.LatInterGPU, p.BWInter
		}
		return p.LatInterGPU + p.LatHostStage, p.BWStaged
	default:
		panic(fmt.Sprintf("netmodel: unknown link kind %v", kind))
	}
}

// Xfer is the time to move n bytes over a link of the given kind with
// exclusive use of the link.
func (m *Model) Xfer(kind topology.LinkKind, n int) float64 {
	return m.xferShared(kind, n, 1)
}

// xferShared moves n bytes while `flows` concurrent flows share the
// link's bandwidth (latency is not shared).
func (m *Model) xferShared(kind topology.LinkKind, n int, flows int) float64 {
	if n < 0 {
		panic("netmodel: negative message size")
	}
	if n == 0 || kind == topology.LinkSelf {
		return 0
	}
	if flows < 1 {
		flows = 1
	}
	alpha, bw := m.LinkParams(kind)
	bw /= float64(flows)
	p := m.Prof
	t := alpha
	if n > p.EagerLimit {
		t += p.RndvOverhead
	}
	// Large GPU messages crossing nodes go through the chunk-pipelined
	// host-staging protocol (for GPU-direct libraries only above
	// MV2_GPUDIRECT_LIMIT; tiny messages ride GDR RDMA directly).
	// The first chunk's device→host copy cannot overlap anything —
	// that pipeline-fill cost is what penalises oversized chunks,
	// while per-chunk software overhead penalises undersized ones.
	interNode := kind == topology.LinkIB || kind == topology.LinkPCIeHost
	pipelined := interNode && n > p.EagerLimit && (!p.GPUDirect || n > p.GPUDirectLimit)
	if pipelined {
		chunks := (n + p.CUDABlockSize - 1) / p.CUDABlockSize
		fill := float64(min(p.CUDABlockSize, n)) / p.BWStaged
		t += fill + float64(n)/bw + float64(chunks-1)*chunkOverheadSec
		return t
	}
	return t + float64(n)/bw
}

// P2P is the time for a single message between two global ranks.
func (m *Model) P2P(a, b, n int) float64 {
	return m.Xfer(m.Mach.Link(a, b), n)
}

// reduceTime is the elementwise-combine time for n wire bytes:
// n/ElemBytes elements at the profile's reduce throughput.
func (m *Model) reduceTime(n int) float64 {
	eb := m.ElemBytes
	if eb == 0 {
		eb = 4
	}
	return float64(n) / float64(eb) / m.Prof.ReduceFlops
}

// worstKind reports the slowest link kind appearing between
// consecutive ranks of the group (ring order) and how many of the
// group's ranks on one node would use the NIC concurrently in an
// all-pairs step.
func (m *Model) worstKind(ranks []int) topology.LinkKind {
	worst := topology.LinkSelf
	for i := range ranks {
		j := (i + 1) % len(ranks)
		k := m.Mach.Link(ranks[i], ranks[j])
		if k > worst {
			worst = k
		}
	}
	return worst
}

// spansNodes reports whether the group crosses node boundaries.
func (m *Model) spansNodes(ranks []int) bool {
	for _, r := range ranks[1:] {
		if m.Mach.Node(r) != m.Mach.Node(ranks[0]) {
			return true
		}
	}
	return false
}

// ringFlowsPerNIC counts, for a ring laid out in rank order, the
// maximum number of ring edges leaving any single node. With
// contiguous placement (6 consecutive ranks per node) this is 1; with
// strided or partial placement it can be higher.
func (m *Model) ringFlowsPerNIC(ranks []int) int {
	if !m.spansNodes(ranks) {
		return 0
	}
	if m.flowScratch == nil {
		m.flowScratch = map[int]int{}
	}
	out := m.flowScratch
	clear(out)
	maxFlows := 0
	for i := range ranks {
		j := (i + 1) % len(ranks)
		if m.Mach.Node(ranks[i]) != m.Mach.Node(ranks[j]) {
			out[m.Mach.Node(ranks[i])]++
			if out[m.Mach.Node(ranks[i])] > maxFlows {
				maxFlows = out[m.Mach.Node(ranks[i])]
			}
		}
	}
	return maxFlows
}

// AllreduceRing is the classic bandwidth-optimal ring allreduce:
// a reduce-scatter pass of p−1 steps followed by an allgather pass of
// p−1 steps, each moving ceil(n/p)-byte segments concurrently on all
// ring edges. Step time is set by the slowest edge.
func (m *Model) AllreduceRing(ranks []int, n int) float64 {
	p := len(ranks)
	if p <= 1 || n == 0 {
		return 0
	}
	seg := (n + p - 1) / p
	kind := m.worstKind(ranks)
	flows := 1
	if kind == topology.LinkIB {
		flows = m.ringFlowsPerNIC(ranks)
	}
	step := m.xferShared(kind, seg, flows)
	// Reduce-scatter steps also pay the elementwise combine.
	return float64(p-1)*(step+m.reduceTime(seg)) + float64(p-1)*step
}

// AllreduceRecursiveDoubling exchanges the full vector log2(p) times.
// Latency-optimal for small messages; each off-node step has every
// rank of a node crossing the NIC simultaneously.
func (m *Model) AllreduceRecursiveDoubling(ranks []int, n int) float64 {
	p := len(ranks)
	if p <= 1 || n == 0 {
		return 0
	}
	total := 0.0
	// Non-power-of-two groups fold the remainder in/out with an extra
	// exchange at each end (MPICH-style).
	pow := 1
	for pow*2 <= p {
		pow *= 2
	}
	rem := p - pow
	if rem > 0 {
		total += 2 * (m.stepTime(ranks, 1, n) + m.reduceTime(n))
	}
	for dist := 1; dist < pow; dist *= 2 {
		total += m.stepTime(ranks, dist, n) + m.reduceTime(n)
	}
	return total
}

// AllreduceRabenseifner is recursive-halving reduce-scatter followed
// by recursive-doubling allgather: log-latency with the ring's
// bandwidth term.
func (m *Model) AllreduceRabenseifner(ranks []int, n int) float64 {
	p := len(ranks)
	if p <= 1 || n == 0 {
		return 0
	}
	pow := 1
	for pow*2 <= p {
		pow *= 2
	}
	total := 0.0
	if p != pow {
		total += 2 * (m.stepTime(ranks, 1, n) + m.reduceTime(n))
	}
	// Reduce-scatter: distances grow, payload halves.
	payload := n / 2
	for dist := 1; dist < pow; dist *= 2 {
		total += m.stepTime(ranks, dist, payload) + m.reduceTime(payload)
		payload /= 2
		if payload == 0 {
			payload = 1
		}
	}
	// Allgather mirror: payload doubles back up.
	payload = n / pow
	if payload == 0 {
		payload = 1
	}
	for dist := pow / 2; dist >= 1; dist /= 2 {
		total += m.stepTime(ranks, dist, payload)
		payload *= 2
	}
	return total
}

// stepTime is the cost of one pairwise-exchange step at the given rank
// distance within the group, accounting for NIC sharing when the step
// crosses nodes.
func (m *Model) stepTime(ranks []int, dist, n int) float64 {
	p := len(ranks)
	worst := topology.LinkSelf
	crossing := 0
	for i := 0; i < p; i++ {
		j := i ^ dist
		if j >= p {
			j = (i + dist) % p
		}
		k := m.Mach.Link(ranks[i], ranks[j])
		if k > worst {
			worst = k
		}
		if k == topology.LinkIB && m.Mach.Node(ranks[i]) == m.Mach.Node(ranks[0]) {
			crossing++
		}
	}
	flows := 1
	if worst == topology.LinkIB {
		// In a distance-d exchange, every rank of a node whose
		// partner is off-node crosses the NIC at once.
		flows = crossing
		if flows < 1 {
			flows = 1
		}
	}
	return m.xferShared(worst, n, flows)
}

// Bcast broadcasts n bytes: binomial tree for small messages,
// van de Geijn scatter+allgather for large ones (what MPI libraries
// switch to, since a tree of full-size messages wastes bandwidth).
func (m *Model) Bcast(ranks []int, n int) float64 {
	p := len(ranks)
	if p <= 1 || n == 0 {
		return 0
	}
	steps := int(math.Ceil(math.Log2(float64(p))))
	kind := m.worstKind(ranks)
	if n <= smallMessageLimit {
		return float64(steps) * m.Xfer(kind, n)
	}
	seg := (n + p - 1) / p
	scatter := float64(steps)*m.latencyOnly(kind) + m.Xfer(kind, n-seg)
	return scatter + m.AllgatherRing(ranks, n)
}

// latencyOnly is the per-message constant cost on a link.
func (m *Model) latencyOnly(kind topology.LinkKind) float64 {
	alpha, _ := m.LinkParams(kind)
	return alpha
}

// ReduceScatterRing is the first half of the ring allreduce.
func (m *Model) ReduceScatterRing(ranks []int, n int) float64 {
	p := len(ranks)
	if p <= 1 || n == 0 {
		return 0
	}
	seg := (n + p - 1) / p
	kind := m.worstKind(ranks)
	flows := 1
	if kind == topology.LinkIB {
		flows = m.ringFlowsPerNIC(ranks)
	}
	step := m.xferShared(kind, seg, flows)
	return float64(p-1) * (step + m.reduceTime(seg))
}

// AllgatherRing is the second half of the ring allreduce.
func (m *Model) AllgatherRing(ranks []int, n int) float64 {
	p := len(ranks)
	if p <= 1 || n == 0 {
		return 0
	}
	seg := (n + p - 1) / p
	kind := m.worstKind(ranks)
	flows := 1
	if kind == topology.LinkIB {
		flows = m.ringFlowsPerNIC(ranks)
	}
	return float64(p-1) * m.xferShared(kind, seg, flows)
}

// NegotiationTime models one Horovod coordinator round over p ranks:
// a gather of ready-tensor bitmaps to rank 0 and a broadcast of the
// fused-response list, plus per-rank coordinator processing. These
// are tiny host-memory messages, so the cost is latency-dominated and
// nearly library-independent.
func NegotiationTime(p int) float64 {
	if p <= 1 {
		return 0
	}
	steps := math.Ceil(math.Log2(float64(p)))
	return 2*steps*hostAlphaSec + float64(p)*negotiatePerRank
}
