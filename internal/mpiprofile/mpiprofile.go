// Package mpiprofile captures the behavioural differences between the
// MPI libraries compared in the paper — IBM Spectrum MPI (Summit's
// default) and MVAPICH2-GDR — as explicit, tunable parameter sets.
//
// The paper's performance win comes from three properties of
// MVAPICH2-GDR that this package makes first-class:
//
//  1. GPU-direct RDMA for small messages (no host staging → much lower
//     latency, governed by MV2_GPUDIRECT_LIMIT);
//  2. pipelined device↔host staging for large messages with a tunable
//     chunk size (MV2_CUDA_BLOCK_SIZE) that achieves near-line-rate
//     InfiniBand bandwidth;
//  3. CUDA-IPC fast paths within a node.
//
// A Profile is pure data: internal/netmodel turns it into transfer and
// collective times. Knobs use their real environment-variable names so
// sweep output reads like a job script; internal/core/knobs.go parses
// and renders them.
package mpiprofile

import "fmt"

// Byte sizes.
const (
	KiB = 1 << 10
	MiB = 1 << 20
)

// Profile describes one MPI library's communication behaviour on
// Summit. Latencies are in seconds, bandwidths in bytes/second.
type Profile struct {
	Name string

	// GPUDirect enables GPU-direct RDMA for inter-node transfers and
	// CUDA IPC intra-node. When false every GPU buffer is staged
	// through host memory (two extra PCIe copies).
	GPUDirect bool

	// LatIntraNVLink is the GPU-to-GPU small-message latency within an
	// NVLink triad.
	LatIntraNVLink float64
	// LatIntraXBus crosses the POWER9 socket interconnect.
	LatIntraXBus float64
	// LatInterGPU is the inter-node GPU-buffer latency (GDR path when
	// GPUDirect, else includes staging overheads).
	LatInterGPU float64
	// LatHostStage is the extra latency added per message when a GPU
	// buffer must be staged through host memory.
	LatHostStage float64

	// BWNVLink and BWXBus are achieved intra-node bandwidths.
	BWNVLink float64
	BWXBus   float64
	// BWInter is the achieved per-flow inter-node bandwidth (dual-rail
	// EDR line rate is 25 GB/s; libraries achieve a fraction of it).
	BWInter float64
	// BWStaged is the effective bandwidth of the staged GPU→host→NIC
	// path used by non-GPU-direct libraries for large messages.
	BWStaged float64

	// GPUDirectLimit (MV2_GPUDIRECT_LIMIT): messages at or below this
	// size go over GDR RDMA directly; larger messages use the
	// pipelined staging protocol. Ignored when !GPUDirect.
	GPUDirectLimit int
	// CUDABlockSize (MV2_CUDA_BLOCK_SIZE): the chunk size of the
	// pipelined large-message protocol. Larger chunks amortise
	// per-chunk latency but pipeline less.
	CUDABlockSize int
	// EagerLimit: messages at or below this size skip the rendezvous
	// handshake.
	EagerLimit int
	// RndvOverhead is the extra handshake latency for rendezvous
	// (large) messages.
	RndvOverhead float64

	// ReduceFlops is the elementwise-reduction rate (elements/second)
	// a rank sustains while combining incoming gradient chunks.
	ReduceFlops float64

	// FusionPackBW is the bandwidth at which Horovod's fusion buffer
	// is packed/unpacked on this library's memory path: an on-GPU
	// kernel for a GPU-direct library, a PCIe round trip into host
	// memory otherwise.
	FusionPackBW float64
}

// Validate checks that the profile is physically sensible.
func (p *Profile) Validate() error {
	type pos struct {
		name string
		v    float64
	}
	checks := []pos{
		{"LatIntraNVLink", p.LatIntraNVLink},
		{"LatIntraXBus", p.LatIntraXBus},
		{"LatInterGPU", p.LatInterGPU},
		{"BWNVLink", p.BWNVLink},
		{"BWXBus", p.BWXBus},
		{"BWInter", p.BWInter},
		{"BWStaged", p.BWStaged},
		{"ReduceFlops", p.ReduceFlops},
		{"FusionPackBW", p.FusionPackBW},
	}
	for _, c := range checks {
		if c.v <= 0 {
			return fmt.Errorf("mpiprofile %q: %s must be positive, got %g", p.Name, c.name, c.v)
		}
	}
	if p.LatHostStage < 0 || p.RndvOverhead < 0 {
		return fmt.Errorf("mpiprofile %q: negative overhead", p.Name)
	}
	if p.CUDABlockSize <= 0 {
		return fmt.Errorf("mpiprofile %q: CUDABlockSize must be positive", p.Name)
	}
	if p.EagerLimit < 0 || p.GPUDirectLimit < 0 {
		return fmt.Errorf("mpiprofile %q: negative threshold", p.Name)
	}
	return nil
}

// Clone returns a deep copy, so sweeps can mutate knobs freely.
func (p *Profile) Clone() *Profile {
	q := *p
	return &q
}

// Spectrum returns a profile modelled on IBM Spectrum MPI as shipped
// on Summit circa 2019: CUDA-aware but staging GPU buffers through
// host memory for inter-node transfers, with higher small-message
// latency and lower achieved bandwidth on the GPU path.
func Spectrum() *Profile {
	return &Profile{
		Name:           "spectrum",
		GPUDirect:      false,
		LatIntraNVLink: 4.0e-6,
		LatIntraXBus:   6.0e-6,
		LatInterGPU:    16.0e-6,
		LatHostStage:   8.0e-6,
		BWNVLink:       38e9,
		BWXBus:         22e9,
		BWInter:        14.5e9, // one rail + protocol overheads
		BWStaged:       9.0e9,  // PCIe-bound staged path
		GPUDirectLimit: 0,
		CUDABlockSize:  256 * KiB,
		EagerLimit:     16 * KiB,
		RndvOverhead:   6.0e-6,
		ReduceFlops:    8e9,  // host-side reduction
		FusionPackBW:   11e9, // fusion buffer staged over PCIe
	}
}

// MV2GDR returns a profile modelled on MVAPICH2-GDR 2.3.x on Summit:
// GPU-direct RDMA, CUDA IPC intra-node, dual-rail aware large-message
// pipelining.
func MV2GDR() *Profile {
	return &Profile{
		Name:           "mv2gdr",
		GPUDirect:      true,
		LatIntraNVLink: 2.2e-6,
		LatIntraXBus:   3.5e-6,
		LatInterGPU:    4.5e-6,
		LatHostStage:   8.0e-6, // only paid if staging is forced
		BWNVLink:       44e9,
		BWXBus:         26e9,
		BWInter:        20.5e9, // dual rail, GDR pipelined
		BWStaged:       11.5e9,
		GPUDirectLimit: 8 * KiB, // MV2_GPUDIRECT_LIMIT default
		CUDABlockSize:  256 * KiB,
		EagerLimit:     16 * KiB,
		RndvOverhead:   3.0e-6,
		ReduceFlops:    60e9,  // GPU reduction kernels
		FusionPackBW:   250e9, // on-device fusion-buffer kernels
	}
}

// NCCL returns a profile modelled on NCCL 2.4 on Summit — the
// backend Horovod recommends and the third point of the paper's
// comparison. GPU-direct with excellent ring bandwidth and GPU-side
// reduction kernels; small-message latency sits above MVAPICH2-GDR's
// tuned point-to-point path (NCCL's ring pays per-hop launch costs),
// which is where the paper's MV2-GDR tuning finds its edge.
func NCCL() *Profile {
	return &Profile{
		Name:           "nccl",
		GPUDirect:      true,
		LatIntraNVLink: 3.0e-6,
		LatIntraXBus:   4.5e-6,
		LatInterGPU:    7.0e-6,
		LatHostStage:   8.0e-6,
		BWNVLink:       46e9,
		BWXBus:         26e9,
		BWInter:        21.0e9,
		BWStaged:       11.5e9,
		GPUDirectLimit: 64 * KiB, // NCCL protocols switch later
		CUDABlockSize:  512 * KiB,
		EagerLimit:     16 * KiB,
		RndvOverhead:   4.0e-6,
		ReduceFlops:    80e9,  // fused ring reduce kernels
		FusionPackBW:   300e9, // on-device
	}
}

// ByName returns a built-in profile.
func ByName(name string) (*Profile, error) {
	switch name {
	case "spectrum":
		return Spectrum(), nil
	case "mv2gdr":
		return MV2GDR(), nil
	case "nccl":
		return NCCL(), nil
	default:
		return nil, fmt.Errorf("mpiprofile: unknown profile %q (want spectrum, mv2gdr or nccl)", name)
	}
}

// Names lists the built-in profile names.
func Names() []string { return []string{"spectrum", "mv2gdr", "nccl"} }
