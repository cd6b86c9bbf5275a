package train

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"segscale/internal/segdata"
	"segscale/internal/transport"
)

// realStepAllocs measures the steady-state heap allocations of
// rankStep.step — the trainer's own step, built by newRankStep around
// a fresh replica and synced by syncState exactly as an incarnation does
// — at GOMAXPROCS=procs under DefaultConfig with augmentation on or
// off, in a world of the given size on the fp32 or binary16 wire. The
// count is the process's per rank-0 step, so at world 2 it includes the
// other rank's step. At world 1 and one proc it is testing.AllocsPerRun's;
// above one proc, where AllocsPerRun would pin GOMAXPROCS back to 1 and
// skip every Parallel fan-out, it is a Mallocs delta averaged over ten
// steps. At world 2 it is a Mallocs delta over a barrier-bracketed
// window (see below).
// useWS=false detaches the workspace: the plain-heap baseline the arena
// is judged against.
func realStepAllocs(t *testing.T, world, procs int, fp16, augment, useWS bool) float64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.World = world
	cfg.MixedPrecision = fp16
	cfg.Augment = augment
	rs, err := newRunState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	members := rs.members.Members()
	_, fresh, err := rs.prepareReplicas(members, 0)
	if err != nil {
		t.Fatal(err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var allocs float64
	err = transport.Run(world, func(c *transport.Comm) error {
		rank := c.Rank()
		rep := fresh()
		if !useWS {
			rep.net.SetWorkspace(nil)
		}
		st := rs.newRankStep(c, rep, rank, 0, segdata.ShardIDs(cfg.TrainSize, world, rank))
		rt, err := rs.syncState(c, rep, members, 0, 0)
		if err != nil {
			return err
		}
		st.rt = rt
		perm := rand.New(rand.NewSource(1)).Perm(len(st.shard))
		rng := augRNG(cfg.Seed, rank, 0)
		s := 0
		var stepErr error
		step := func() {
			if _, err := st.step(s, perm, rng); err != nil && stepErr == nil {
				stepErr = err
			}
			s++
		}
		runs := 3
		switch {
		case world > 1:
			runs = 2
		case procs > 1:
			runs = 10
		}
		// Warm the arena, the fusion buffers, the transport's free lists
		// and the optimiser's velocity, then replay the same steps —
		// batches and augmentation draws — for the measurement. The
		// replay finds every resize plan its random scales need already
		// in the process-wide cache, so the count does not depend on
		// which sizes earlier tests in the process happened to draw.
		for i := 0; i < runs+1; i++ {
			step()
		}
		var before, after runtime.MemStats
		switch {
		case world > 1:
			// Barriers bracket rank 0's window so that every rank's steps
			// fall inside it: the second keeps the others from starting
			// before rank 0 has read the counter, the third waits for
			// them to finish. A barrier makes its one channel before it
			// releases anyone, so the window holds runs steps per rank and
			// exactly two channels — one a step, at two runs. Each replay's
			// augmentation stream is drawn up front: a rank released first
			// from the third barrier runs on while rank 0 reads, so
			// drawing it there would land in the window. Pools the ranks
			// share (the transport's free lists, the GEMM panel pool)
			// grow when a preemption interleaves the ranks more deeply
			// than warm-up did, and never shrink, so such growth only
			// ever adds to a window: the least of five windows is the
			// steady state.
			barrier := func() {
				if err := c.Barrier(); err != nil && stepErr == nil {
					stepErr = err
				}
			}
			streams := make([]*rand.Rand, 5)
			for i := range streams {
				streams[i] = augRNG(cfg.Seed, rank, 0)
			}
			for window, stream := range streams {
				s, rng = 0, stream
				barrier()
				if rank == 0 {
					runtime.ReadMemStats(&before)
				}
				barrier()
				for i := 0; i < runs; i++ {
					step()
				}
				barrier()
				if rank == 0 {
					runtime.ReadMemStats(&after)
					got := float64(after.Mallocs-before.Mallocs) / float64(runs)
					if window == 0 || got < allocs {
						allocs = got
					}
				}
			}
		case procs == 1:
			s, rng = 0, augRNG(cfg.Seed, rank, 0)
			allocs = testing.AllocsPerRun(runs, step)
		default:
			s, rng = 0, augRNG(cfg.Seed, rank, 0)
			step() // AllocsPerRun's warm-up
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				step()
			}
			runtime.ReadMemStats(&after)
			allocs = float64(after.Mallocs-before.Mallocs) / float64(runs)
		}
		return stepErr
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// checkAllocRow holds one row of an allocation budget. An exact row
// (ceiling 0) must read its pin: more is a regression, fewer a gain the
// table must record. A banded row — several ranks, or GOMAXPROCS above
// one, whose count moves with goroutine interleaving — fails only above
// its ceiling.
func checkAllocRow(t *testing.T, got, pin, ceiling float64) {
	t.Helper()
	t.Logf("allocs/call: %.1f (pin %.0f, ceiling %.0f)", got, pin, ceiling)
	switch {
	case ceiling > 0 && got > ceiling:
		t.Errorf("allocates %.1f times per call, ceiling %.0f", got, ceiling)
	case ceiling == 0 && got != pin:
		t.Errorf("allocates %.1f times per call, pinned at %.0f: a regression if more, re-pin to %.0f if fewer", got, pin, got)
	}
}

// TestTrainStepAllocBudget pins the steady-state allocation count of
// the real training step at world 1 and world 2 on both wires, with
// augmentation off and on. The world-1 residue is bounded and
// intentional — among it Parallel-closure headers at tensor-op call
// sites, the loss's tiny float64 reduction buffers, and SplitChannels'
// slice-of-headers: each a handful of words, none proportional to
// activation size. Augmentation adds, per step, RandomScaleCrop's label
// scratch and each sample's resized copy and view header. A world-2 row
// is both ranks' steps plus one barrier channel: the transport recycles
// every payload and wakes its peers through semaphores made once, so
// the fused gradient buffers and SyncBN's per-layer reductions add
// nothing. Every row at one proc is exact, so one extra allocation a
// step fails it. At GOMAXPROCS=4 every Parallel launch adds its closure
// and goroutines, whose count moves with scheduling; that row has a
// ceiling.
func TestTrainStepAllocBudget(t *testing.T) {
	for _, c := range []struct {
		world, procs  int
		fp16, augment bool
		pin, ceiling  float64
	}{
		{1, 1, false, false, 32, 0},
		{1, 1, true, false, 32, 0},
		{2, 1, false, false, 65, 0},
		{2, 1, true, false, 65, 0},
		{1, 1, false, true, 61, 0},
		{1, 1, true, true, 61, 0},
		{2, 1, false, true, 123, 0},
		{2, 1, true, true, 123, 0},
		{1, 4, false, true, 896, 1.25*896 + 2},
	} {
		name := fmt.Sprintf("w%d_fp32", c.world)
		if c.fp16 {
			name = fmt.Sprintf("w%d_fp16", c.world)
		}
		if c.augment {
			name += "_aug"
		}
		if c.procs > 1 {
			name += fmt.Sprintf("_mp%d", c.procs)
		}
		t.Run(name, func(t *testing.T) {
			checkAllocRow(t, realStepAllocs(t, c.world, c.procs, c.fp16, c.augment, true), c.pin, c.ceiling)
		})
	}
}

// TestTrainStepAllocReduction locks in the headline claim: the pooled
// workspace eliminates at least 90% of the heap baseline's per-step
// allocations.
func TestTrainStepAllocReduction(t *testing.T) {
	heap := realStepAllocs(t, 1, 1, false, false, false)
	pooled := realStepAllocs(t, 1, 1, false, false, true)
	t.Logf("allocs/step: heap=%.0f pooled=%.0f (%.1f%% reduction)",
		heap, pooled, 100*(1-pooled/heap))
	if pooled > 0.1*heap {
		t.Fatalf("pooled step allocates %.0f of heap baseline %.0f — under 90%% reduction", pooled, heap)
	}
}
