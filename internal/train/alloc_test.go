package train

import (
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"segscale/internal/modelhealth"
	"segscale/internal/obs"
	"segscale/internal/segdata"
	"segscale/internal/telemetry"
	"segscale/internal/transport"
)

// runWorld runs fn on every rank of a fresh n-rank world.
func runWorld(n int, fn func(c *transport.Comm) error) error {
	w, err := transport.NewWorld(n)
	if err != nil {
		return err
	}
	return w.Run(fn)
}

// realStepAllocs measures the steady-state heap allocations of
// rankStep.step — the trainer's own step, built by newRankStep around
// a fresh replica and synced by syncState exactly as an incarnation does
// — at GOMAXPROCS=procs under cfg, in a world of cfg.World ranks. The
// count is the process's per rank-0 step, so at world 2 it includes the
// other rank's step. At world 1 and one proc it is testing.AllocsPerRun's;
// above one proc, where AllocsPerRun would pin GOMAXPROCS back to 1 and
// skip every Parallel fan-out, it is a Mallocs delta averaged over ten
// steps. At world 2 it is a Mallocs delta over a barrier-bracketed
// window (see below).
// useWS=false detaches the workspace: the plain-heap baseline the arena
// is judged against.
func realStepAllocs(t *testing.T, cfg Config, procs int, useWS bool) float64 {
	t.Helper()
	world := cfg.World
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
	err = runWorld(world, func(c *transport.Comm) error {
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

// stepRow is one row of TestTrainStepAllocBudget: DefaultConfig without
// augmentation, changed by set.
type stepRow struct {
	name         string
	world, procs int
	set          func(*Config)
	pin, ceiling float64
}

func (r stepRow) config() Config {
	cfg := DefaultConfig()
	cfg.World = r.world
	cfg.Augment = false
	if r.set != nil {
		r.set(&cfg)
	}
	return cfg
}

// TestTrainStepAllocBudget pins the steady-state allocation count of
// the real training step, one row per branch the step can take: world
// 1 and world 2 on both wires with augmentation off and on, and at world
// 1 each knob that routes the step through other code — the LARS
// optimiser, gradient clipping on either wire, gradient accumulation,
// the FCN architecture, DeepLab without its decoder, the urban scene
// generator, an fp16 step whose gradients overflow (with telemetry on,
// so the backoff is marked), and each observer (health plane,
// telemetry with a flight recorder, step observer). The world-1
// residue is bounded and intentional — among it the loss's tiny
// float64 reduction buffers and SplitChannelsWS' slice-of-headers: each
// a handful of words, none proportional to activation size; no kernel
// launch allocates on one worker. Augmentation adds, per step,
// RandomScaleCrop's label scratch and each sample's view header. The
// urban generator seeds a generator per sample.
// The observers' logs (health rows, telemetry spans) grow by doubling;
// AllocsPerRun rounds its per-step mean down, so a doubling that lands
// among the three measured steps does not move a row, and one
// allocation every step does. A
// world-2 row is both ranks' steps plus one barrier channel: the
// transport recycles every payload and wakes its peers through
// semaphores made once, so the fused gradient buffers and SyncBN's
// per-layer reductions add nothing. Every row at one proc is exact, so
// one extra allocation a step fails it. Each rank's kernels fan out
// over GOMAXPROCS/world workers (newRankStep), so world 2 at
// GOMAXPROCS=2 still runs one worker a rank: w2_fp32_aug_mp2 must read
// the one-proc w2_fp32_aug pin exactly. Above that, with two workers a
// rank at world 2 or four at world 1, every kernel launch adds its
// closure and goroutines, whose count moves with scheduling; those
// rows have a ceiling.
func TestTrainStepAllocBudget(t *testing.T) {
	fp16 := func(c *Config) { c.MixedPrecision = true }
	aug := func(c *Config) { c.Augment = true }
	for _, r := range []stepRow{
		{"w1_fp32", 1, 1, nil, 16, 0},
		{"w1_fp16", 1, 1, fp16, 16, 0},
		{"w2_fp32", 2, 1, nil, 33, 0},
		{"w2_fp16", 2, 1, fp16, 33, 0},
		{"w1_fp32_aug", 1, 1, aug, 29, 0},
		{"w1_fp16_aug", 1, 1, func(c *Config) { fp16(c); aug(c) }, 29, 0},
		{"w2_fp32_aug", 2, 1, aug, 59, 0},
		{"w2_fp16_aug", 2, 1, func(c *Config) { fp16(c); aug(c) }, 59, 0},
		{"w2_fp32_aug_mp2", 2, 2, aug, 59, 0},
		{"w2_fp32_aug_mp4", 2, 4, aug, 1086, 1.25*1086 + 2},
		{"w1_fp32_aug_mp4", 1, 4, aug, 875, 1.25*875 + 2},
		{"w1_fp32_lars", 1, 1, func(c *Config) { c.Optimizer = "lars" }, 16, 0},
		{"w1_fp32_clip", 1, 1, func(c *Config) { c.GradClip = 1 }, 16, 0},
		{"w1_fp16_clip", 1, 1, func(c *Config) { fp16(c); c.GradClip = 1 }, 16, 0},
		{"w1_fp32_accum2", 1, 1, func(c *Config) { c.Horovod.BackwardPassesPerStep = 2 }, 16, 0},
		{"w1_fp32_fcn", 1, 1, func(c *Config) { c.Arch = "fcn" }, 12, 0},
		{"w1_fp32_nodecoder", 1, 1, func(c *Config) { c.Model.NoDecoder = true }, 14, 0},
		{"w1_fp32_urban", 1, 1, func(c *Config) { c.DataStyle = segdata.StyleUrban }, 16, 0},
		{"w1_fp16_overflow", 1, 1, func(c *Config) {
			fp16(c)
			c.LossScale = 1 << 200 // +Inf as a float32 scale: every step overflows
			c.Telemetry = telemetry.NewCollector()
		}, 16, 0},
		{"w1_fp32_health", 1, 1, func(c *Config) { c.Health = modelhealth.New(modelhealth.Config{}) }, 16, 0},
		{"w1_fp32_telemetry", 1, 1, func(c *Config) {
			c.Telemetry = telemetry.NewCollector()
			c.Telemetry.EnableFlight(0)
		}, 16, 0},
		{"w1_fp32_stepobs", 1, 1, func(c *Config) {
			// A flusher that counts every step and never reaches its flush.
			c.StepObs = telemetry.MultiObserver(obs.NewPromFlusher(telemetry.NewCollector(), filepath.Join(t.TempDir(), "m.prom"), 1<<30))
		}, 16, 0},
	} {
		t.Run(r.name, func(t *testing.T) {
			checkAllocRow(t, realStepAllocs(t, r.config(), r.procs, true), r.pin, r.ceiling)
		})
	}
}

// TestTrainStepAllocReduction locks in the headline claim: the pooled
// workspace eliminates at least 90% of the heap baseline's per-step
// allocations.
func TestTrainStepAllocReduction(t *testing.T) {
	cfg := stepRow{world: 1}.config()
	heap := realStepAllocs(t, cfg, 1, false)
	pooled := realStepAllocs(t, cfg, 1, true)
	t.Logf("allocs/step: heap=%.0f pooled=%.0f (%.1f%% reduction)",
		heap, pooled, 100*(1-pooled/heap))
	if pooled > 0.1*heap {
		t.Fatalf("pooled step allocates %.0f of heap baseline %.0f — under 90%% reduction", pooled, heap)
	}
}
