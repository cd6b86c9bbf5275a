package train

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"segscale/internal/deeplab"
	"segscale/internal/faultinject"
	"segscale/internal/segdata"
	"segscale/internal/transport"
)

// fastCfg keeps unit-test runtime low: tiny model, tiny dataset.
func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.Model.InputSize = 16
	cfg.Model.Width = 8
	cfg.Model.DeepBlocks = 1
	cfg.Model.AtrousRates = [3]int{1, 2, 3}
	cfg.TrainSize = 24
	cfg.EvalSize = 8
	cfg.Epochs = 8
	return cfg
}

func TestValidation(t *testing.T) {
	bads := []func(*Config){
		func(c *Config) { c.World = 0 },
		func(c *Config) { c.Epochs = 0 },
		func(c *Config) { c.BatchPerRank = 0 },
		func(c *Config) { c.TrainSize = 1; c.World = 4 },
		func(c *Config) { c.EvalSize = 0 },
		func(c *Config) { c.Arch = "unet" },
		func(c *Config) { c.BaseLR = 0 },
		func(c *Config) { c.Optimizer = "adam" },
		func(c *Config) { c.GradClip = -1 },
	}
	for i, mutate := range bads {
		cfg := fastCfg()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// The paper's cycle-time and response-cache knobs tune a background
// loop and a negotiation only the simulator models, and a straggler
// slows modelled compute time: the trainer says so instead of silently
// ignoring them.
func TestValidationRejectsSimulatorOnlyKnobs(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"CycleTime":     func(c *Config) { c.Horovod.CycleTime = 2 * time.Millisecond },
		"ResponseCache": func(c *Config) { c.Horovod.ResponseCache = true },
		"Stragglers": func(c *Config) {
			c.Chaos = &faultinject.Plan{Stragglers: []faultinject.Straggler{{Rank: 0, Factor: 1.5, ToStep: -1}}}
		},
	} {
		cfg := fastCfg()
		mutate(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "only perfsim reads") {
			t.Errorf("%s: got %v, want the simulator-only rejection", name, err)
		}
	}
}

func TestSingleRankConverges(t *testing.T) {
	cfg := fastCfg()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != cfg.Epochs {
		t.Fatalf("history length %d", len(res.History))
	}
	first, last := res.History[0], res.History[len(res.History)-1]
	if !(last.Loss < first.Loss*0.8) {
		t.Fatalf("loss did not drop: %.4f → %.4f", first.Loss, last.Loss)
	}
	if !(res.FinalMIOU > first.MIOU) {
		t.Fatalf("mIOU did not improve: %.4f → %.4f", first.MIOU, res.FinalMIOU)
	}
	if math.IsNaN(last.Loss) {
		t.Fatal("training diverged")
	}
	// Poly schedule: LR at the end is near zero.
	if last.LR >= first.LR {
		t.Fatalf("LR did not decay: %.4f → %.4f", first.LR, last.LR)
	}
}

func TestStrongScalingParity(t *testing.T) {
	// Same effective batch, same LR: distributed must match
	// single-rank accuracy (the SyncBN + real-allreduce equivalence).
	single := fastCfg()
	single.World = 1
	single.BatchPerRank = 4
	single.Augment = false

	dist := single
	dist.World = 4
	dist.BatchPerRank = 1
	dist.ScaleLRByWorld = false

	rs, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Run(dist)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rs.FinalMIOU-rd.FinalMIOU) > 0.15 {
		t.Fatalf("strong-scaling gap too large: single %.3f vs distributed %.3f", rs.FinalMIOU, rd.FinalMIOU)
	}
	if rd.FinalMIOU <= rd.History[0].MIOU {
		t.Fatalf("distributed run did not improve: %.3f → %.3f", rd.History[0].MIOU, rd.FinalMIOU)
	}
}

func TestUnevenShardsDoNotDeadlock(t *testing.T) {
	cfg := fastCfg()
	cfg.World = 4
	cfg.TrainSize = 27 // 7,7,7,6 per rank — wrap-around keeps lockstep
	cfg.EvalSize = 5
	cfg.Epochs = 2
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFCNTrains(t *testing.T) {
	cfg := fastCfg()
	cfg.Arch = "fcn"
	cfg.Epochs = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.History[len(res.History)-1].Loss < res.History[0].Loss) {
		t.Fatal("FCN loss did not drop")
	}
}

func TestSyncBNOffStillRuns(t *testing.T) {
	cfg := fastCfg()
	cfg.World = 2
	cfg.SyncBN = false
	cfg.Epochs = 2
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// A SyncBN rendezvous that fails mid-forward is the error the world-2
// step returns. The peer's transport dies before the first
// BatchNorm2D.Sync, so the batch-norm reduction fails inside the
// forward, where nothing can return an error; the runtime's sticky slot
// (RecordCommErr) must keep it, and the step must report it at the
// boundary after the loss — not the gradient allreduce's failure that
// follows when the slot drops it.
func TestSyncBNFailureIsTheStepError(t *testing.T) {
	cfg := fastCfg()
	cfg.World = 2
	cfg.SyncBN = true
	rs, err := newRunState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	members := rs.members.Members()
	_, fresh, err := rs.prepareReplicas(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	var stepErr error
	err = runWorld(cfg.World, func(c *transport.Comm) error {
		rank := c.Rank()
		rep := fresh()
		st := rs.newRankStep(c, rep, rank, 0, segdata.ShardIDs(cfg.TrainSize, cfg.World, rank))
		rt, err := rs.syncState(c, rep, members, 0, 0)
		if err != nil {
			return err
		}
		st.rt = rt
		if rank == 1 {
			c.Kill()
			return nil
		}
		perm := rand.New(rand.NewSource(1)).Perm(len(st.shard))
		_, stepErr = st.step(0, perm, augRNG(cfg.Seed, rank, 0))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(stepErr, transport.ErrRankFailed) || !strings.Contains(stepErr.Error(), "allreduce float64") {
		t.Fatalf("step error = %v, want the SyncBN reduction's (horovod: allreduce float64: … rank failed)", stepErr)
	}
}

func TestWeakScalingUsesLinearRule(t *testing.T) {
	// With ScaleLRByWorld the recorded early LR must exceed BaseLR
	// (warmup climbs toward BaseLR·World).
	cfg := fastCfg()
	cfg.World = 4
	cfg.Epochs = 3
	cfg.WarmupFrac = 0.2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maxLR := 0.0
	for _, e := range res.History {
		if e.LR > maxLR {
			maxLR = e.LR
		}
	}
	if maxLR <= cfg.BaseLR {
		t.Fatalf("linear-scaling rule inactive: max LR %.4f ≤ base %.4f", maxLR, cfg.BaseLR)
	}
}

func TestDeepLabBeatsFCNOnSegmentation(t *testing.T) {
	// The architectural contrast: at an equal training budget the
	// DeepLab machinery should not lose to the plain FCN.
	dl := fastCfg()
	dl.Epochs = 10
	fcn := dl
	fcn.Arch = "fcn"
	rdl, err := Run(dl)
	if err != nil {
		t.Fatal(err)
	}
	rfcn, err := Run(fcn)
	if err != nil {
		t.Fatal(err)
	}
	if rdl.FinalMIOU < rfcn.FinalMIOU-0.1 {
		t.Fatalf("DeepLab (%.3f) far below FCN (%.3f)", rdl.FinalMIOU, rfcn.FinalMIOU)
	}
}

func TestUrbanDatasetTrains(t *testing.T) {
	cfg := fastCfg()
	cfg.DataStyle = segdata.StyleUrban
	cfg.Epochs = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The banded scenes are easier than scattered objects: the model
	// must learn them quickly.
	if res.FinalMIOU < 0.25 {
		t.Fatalf("urban mIOU %.3f too low after %d epochs", res.FinalMIOU, cfg.Epochs)
	}
}

func TestLARSOptimizerConverges(t *testing.T) {
	cfg := fastCfg()
	cfg.Optimizer = "lars"
	cfg.BaseLR = 2.0 // LARS global rates are large; trust ratios scale them down
	cfg.GradClip = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.History[0], res.History[len(res.History)-1]
	if !(last.Loss < first.Loss) {
		t.Fatalf("LARS loss did not drop: %.4f → %.4f", first.Loss, last.Loss)
	}
	if math.IsNaN(last.Loss) {
		t.Fatal("LARS diverged")
	}
}

func TestGradientAccumulation(t *testing.T) {
	cfg := fastCfg()
	cfg.World = 2
	cfg.Epochs = 4
	cfg.Horovod.BackwardPassesPerStep = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.History[len(res.History)-1].Loss < res.History[0].Loss) {
		t.Fatal("accumulated training did not learn")
	}
}

func TestBestEpochTracked(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEpoch < 0 || res.BestEpoch >= cfg.Epochs {
		t.Fatalf("best epoch %d", res.BestEpoch)
	}
	if res.BestMIOU < res.FinalMIOU-1e-12 {
		t.Fatalf("best %.4f below final %.4f", res.BestMIOU, res.FinalMIOU)
	}
	if res.History[res.BestEpoch].MIOU != res.BestMIOU {
		t.Fatal("best epoch does not match history")
	}
}

func TestPerClassIOUReported(t *testing.T) {
	cfg := fastCfg()
	cfg.Epochs = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalPerClassIOU) != 21 {
		t.Fatalf("per-class IOU length %d", len(res.FinalPerClassIOU))
	}
	present, sum := 0, 0.0
	for _, iou := range res.FinalPerClassIOU {
		if !math.IsNaN(iou) {
			present++
			sum += iou
		}
	}
	if present == 0 {
		t.Fatal("no classes present in eval set")
	}
	if got := sum / float64(present); math.Abs(got-res.FinalMIOU) > 1e-9 {
		t.Fatalf("per-class mean %.4f != mIOU %.4f", got, res.FinalMIOU)
	}
}

func TestCheckpointAndResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := dir + "/model.segc"

	// Phase 1: train 4 epochs, checkpointing.
	cfg := fastCfg()
	cfg.Epochs = 4
	cfg.CheckpointPath = ckpt
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume and train 4 more — must start from phase 1's
	// quality, not from scratch.
	cfg2 := fastCfg()
	cfg2.Epochs = 4
	cfg2.ResumeFrom = ckpt
	cfg2.Seed = cfg.Seed // same data
	r2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// The resumed run's FIRST epoch should already be at or below the
	// fresh run's LAST loss (it starts from those weights).
	fresh := r1.History[len(r1.History)-1].Loss
	resumed := r2.History[0].Loss
	if resumed > fresh*1.5 {
		t.Fatalf("resume lost progress: fresh final %.4f, resumed first %.4f", fresh, resumed)
	}
	// And a missing checkpoint errors.
	cfg3 := fastCfg()
	cfg3.Epochs = 1
	cfg3.ResumeFrom = dir + "/missing.segc"
	if _, err := Run(cfg3); err == nil {
		t.Error("missing resume checkpoint did not fail")
	}
}

func TestConfigArchDefaults(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Arch != "deeplab" || !cfg.SyncBN || !cfg.ScaleLRByWorld {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.Model.InputSize != deeplab.DefaultConfig().InputSize {
		t.Fatal("model config mismatch")
	}
}
