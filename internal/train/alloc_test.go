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
// — at GOMAXPROCS=1 under DefaultConfig with augmentation on or off, in
// a world of the given size on the fp32 or binary16 wire. The count is
// the process's per rank-0 step, so at world 2 it includes the other
// rank's step. useWS=false detaches the workspace: the plain-heap
// baseline the arena is judged against.
func realStepAllocs(t *testing.T, world int, fp16, augment, useWS bool) float64 {
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

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
		// Warm the arena, the fusion buffers and the optimiser's
		// velocity so the measurement sees the steady state.
		step()
		step()
		const runs = 3
		if rank == 0 {
			allocs = testing.AllocsPerRun(runs, step)
		} else {
			for i := 0; i < runs+1; i++ { // AllocsPerRun warms up once
				step()
			}
		}
		return stepErr
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// TestTrainStepAllocBudget pins the steady-state allocation count of
// the real training step at world 1 and world 2 on both wires, with
// augmentation off and on. The world-1 residue is bounded and
// intentional — among it Parallel-closure headers at tensor-op call
// sites, the loss's tiny float64 reduction buffers, and SplitChannels'
// slice-of-headers: each a handful of words, none proportional to
// activation size. Augmentation adds, per step, RandomScaleCrop's label
// scratch and each sample's resized copy and view header. World 2 adds
// the other rank's step and the collectives' per-message allocations
// (fused gradient buffers and SyncBN's per-layer reductions), and its
// count jitters by a few with goroutine interleaving. Measured on
// go1.24: 32 at world 1 on either wire (61–65 augmented), 598–608 at
// world 2 (646–665 augmented). Budgets sit a little over those so toolchain
// codegen drift does not flake the test; a leaked activation — or a
// per-pixel allocation in the augmentation — blows straight past them.
func TestTrainStepAllocBudget(t *testing.T) {
	for _, c := range []struct {
		world   int
		fp16    bool
		augment bool
		budget  float64
	}{
		{1, false, false, 40},
		{1, true, false, 40},
		{2, false, false, 640},
		{2, true, false, 640},
		{1, false, true, 80},
		{1, true, true, 80},
		{2, false, true, 720},
		{2, true, true, 720},
	} {
		name := fmt.Sprintf("w%d_fp32", c.world)
		if c.fp16 {
			name = fmt.Sprintf("w%d_fp16", c.world)
		}
		if c.augment {
			name += "_aug"
		}
		t.Run(name, func(t *testing.T) {
			got := realStepAllocs(t, c.world, c.fp16, c.augment, true)
			t.Logf("allocs/step: %.1f (budget %.0f)", got, c.budget)
			if got > c.budget {
				t.Fatalf("steady-state train step allocates %.1f times, budget %.0f", got, c.budget)
			}
		})
	}
}

// TestTrainStepAllocReduction locks in the headline claim: the pooled
// workspace eliminates at least 90% of the heap baseline's per-step
// allocations.
func TestTrainStepAllocReduction(t *testing.T) {
	heap := realStepAllocs(t, 1, false, false, false)
	pooled := realStepAllocs(t, 1, false, false, true)
	t.Logf("allocs/step: heap=%.0f pooled=%.0f (%.1f%% reduction)",
		heap, pooled, 100*(1-pooled/heap))
	if pooled > 0.1*heap {
		t.Fatalf("pooled step allocates %.0f of heap baseline %.0f — under 90%% reduction", pooled, heap)
	}
}
