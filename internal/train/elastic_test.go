package train

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"segscale/internal/faultinject"
	"segscale/internal/modelhealth"
)

// elasticCfg is the shared configuration for the elastic tests: four
// ranks, six epochs of six single-image steps each (24 images / 4
// ranks / batch 1), no checkpointing — elastic recovery must never
// need it.
func elasticCfg() Config {
	cfg := fastCfg()
	cfg.World = 4
	cfg.BatchPerRank = 1
	cfg.Epochs = 6
	cfg.Elastic = true
	cfg.MaxRestarts = 2
	return cfg
}

// crashPlan is the ISSUE's crash=3@20 scenario: rank 3 dies at global
// step 20 — two steps into epoch 3 — on the first incarnation only.
func crashPlan() *faultinject.Plan {
	return &faultinject.Plan{
		Crashes: []faultinject.Crash{{Rank: 3, Step: 20, Incarnation: 0}},
	}
}

// renderElastic is the golden serialization: per-epoch metrics with
// the world-size column that makes shrink and regrow transitions
// visible, then the transition counters.
func renderElastic(r *Result) string {
	out := ""
	for _, e := range r.History {
		out += fmt.Sprintf("epoch %d world %d loss %.9g miou %.9g acc %.9g lr %.9g\n",
			e.Epoch, e.World, e.Loss, e.MIOU, e.PixelAcc, e.LR)
	}
	out += fmt.Sprintf("shrinks %d regrows %d final_miou %.9g final_fwiou %.9g\n",
		r.Shrinks, r.Regrows, r.FinalMIOU, r.FinalFwIOU)
	return out
}

func checkElasticGolden(t *testing.T, name, got string) {
	t.Helper()
	goldenPath := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("elastic run drifted from golden %s (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestElasticShrinkByteIdentical is satellite invariant #1: a rank
// crash mid-training shrinks the world in place — survivors re-form a
// three-rank world, shards rebalance, and the run finishes without a
// checkpoint ever being written or read — and the surviving-ranks run
// is byte-identical across reruns of the same seed. The transcript is
// additionally pinned to a committed golden
// (testdata/elastic_shrink.golden, regenerate with
// `go test ./internal/train/ -run TestElasticShrink -update`).
func TestElasticShrinkByteIdentical(t *testing.T) {
	runOnce := func() *Result {
		cfg := elasticCfg()
		cfg.Chaos = crashPlan()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := runOnce()
	if a.Shrinks != 1 || a.Regrows != 0 {
		t.Fatalf("shrinks=%d regrows=%d, want 1/0", a.Shrinks, a.Regrows)
	}
	for e, st := range a.History {
		wantWorld := 4
		if e >= 3 { // the crash lands two steps into epoch 3
			wantWorld = 3
		}
		if st.World != wantWorld {
			t.Errorf("epoch %d ran on %d ranks, want %d", e, st.World, wantWorld)
		}
		if st.Epoch != e {
			t.Errorf("epoch %d missing from history (stats: %+v)", e, st)
		}
	}

	b := runOnce()
	for e := range a.History {
		if a.History[e] != b.History[e] {
			t.Errorf("epoch %d not byte-identical across same-seed reruns:\nfirst:  %+v\nsecond: %+v",
				e, a.History[e], b.History[e])
		}
	}
	if a.FinalMIOU != b.FinalMIOU || a.FinalFwIOU != b.FinalFwIOU {
		t.Errorf("final metrics diverged across reruns: %v/%v vs %v/%v",
			a.FinalMIOU, a.FinalFwIOU, b.FinalMIOU, b.FinalFwIOU)
	}

	checkElasticGolden(t, "elastic_shrink.golden", renderElastic(a))
}

// TestElasticRegrowGolden extends the shrink scenario with a
// scheduled rejoin: the world shrinks 4→3 at epoch 3 and regrows 3→4
// at epoch 5, where the rejoined slot is rebuilt and state-synced
// from a survivor. The transition transcript gets its own golden next
// to the restart-equivalence one, and reruns stay byte-identical.
func TestElasticRegrowGolden(t *testing.T) {
	runOnce := func() *Result {
		cfg := elasticCfg()
		cfg.Chaos = crashPlan()
		cfg.RejoinEpoch = 5
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := runOnce()
	if a.Shrinks != 1 || a.Regrows != 1 {
		t.Fatalf("shrinks=%d regrows=%d, want 1/1", a.Shrinks, a.Regrows)
	}
	wantWorlds := []int{4, 4, 4, 3, 3, 4}
	for e, st := range a.History {
		if st.World != wantWorlds[e] {
			t.Errorf("epoch %d ran on %d ranks, want %d", e, st.World, wantWorlds[e])
		}
	}

	b := runOnce()
	for e := range a.History {
		if a.History[e] != b.History[e] {
			t.Errorf("epoch %d not byte-identical across same-seed reruns:\nfirst:  %+v\nsecond: %+v",
				e, a.History[e], b.History[e])
		}
	}

	checkElasticGolden(t, "elastic_regrow.golden", renderElastic(a))
}

// TestElasticUnfailedMatchesFixedWorld: with no chaos armed, the
// elastic code path must reproduce the fixed-world path's history
// exactly — the membership machinery may not perturb an unfailed run.
func TestElasticUnfailedMatchesFixedWorld(t *testing.T) {
	fixed := elasticCfg()
	fixed.Elastic = false
	fixed.MaxRestarts = 0
	rf, err := Run(fixed)
	if err != nil {
		t.Fatal(err)
	}
	elastic := elasticCfg()
	re, err := Run(elastic)
	if err != nil {
		t.Fatal(err)
	}
	if re.Shrinks != 0 || re.Regrows != 0 {
		t.Fatalf("unfailed elastic run reported shrinks=%d regrows=%d", re.Shrinks, re.Regrows)
	}
	for e := range rf.History {
		if rf.History[e] != re.History[e] {
			t.Errorf("epoch %d: elastic diverged from fixed world:\nfixed:   %+v\nelastic: %+v",
				e, rf.History[e], re.History[e])
		}
	}
}

// TestElasticKeepsHealthPlane: -elastic must not drop the health
// plane. A fault-free World 4 elastic run writes the same rows — not
// merely the same non-zero count — as the fixed-world run.
func TestElasticKeepsHealthPlane(t *testing.T) {
	ledger := func(elastic bool) (int, []byte) {
		cfg := elasticCfg()
		cfg.Elastic = elastic
		if !elastic {
			cfg.MaxRestarts = 0
		}
		plane := modelhealth.New(modelhealth.Config{})
		cfg.Health = plane
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := plane.WriteLedger(&buf); err != nil {
			t.Fatal(err)
		}
		return len(plane.Rows()), buf.Bytes()
	}
	if w := elasticCfg().World; w != 4 {
		t.Fatalf("elasticCfg world %d, this test wants 4", w)
	}
	fixedRows, fixed := ledger(false)
	elasticRows, elastic := ledger(true)
	if fixedRows == 0 {
		t.Fatal("fixed-world run wrote no health rows")
	}
	if elasticRows != fixedRows {
		t.Fatalf("elastic run wrote %d health rows, fixed world %d", elasticRows, fixedRows)
	}
	if !bytes.Equal(elastic, fixed) {
		t.Error("elastic health ledger differs from the fixed-world ledger on a fault-free run")
	}
}

// budgetObserver records the kernel worker budget of slot 0's
// workspace at each of slot 0's steps, in order. Only slot 0's rank
// goroutine appends, and incarnations run one after another.
type budgetObserver struct {
	rs      *runState
	budgets []int
}

func (o *budgetObserver) ObserveStep(lane string, _, _ int, _ float64) {
	if lane == "rank0" {
		o.budgets = append(o.budgets, o.rs.replicas[0].ws.Workers())
	}
}

// TestElasticShrinkReturnsCores checks that the rank worker budget
// follows the live world: at GOMAXPROCS=2 each rank of a two-rank
// world fans its kernels out over one worker, and once a crash shrinks
// the world to one rank the survivor gets both cores back.
func TestElasticShrinkReturnsCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := fastCfg()
	cfg.World = 2
	cfg.Epochs = 3
	cfg.Elastic = true
	cfg.MaxRestarts = 1
	// Three steps an epoch at world 2: rank 1 dies in epoch 1.
	cfg.Chaos = &faultinject.Plan{Crashes: []faultinject.Crash{{Rank: 1, Step: 4, Incarnation: 0}}}
	obs := &budgetObserver{}
	cfg.StepObs = obs
	rs, err := newRunState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obs.rs = rs
	if err := rs.train(); err != nil {
		t.Fatal(err)
	}
	if rs.shrinks != 1 || rs.members.Size() != 1 {
		t.Fatalf("shrinks=%d world=%d, want one shrink to world 1", rs.shrinks, rs.members.Size())
	}
	if len(obs.budgets) == 0 || obs.budgets[0] != 1 {
		t.Fatalf("slot 0's budgets %v: want 1 worker a rank at world 2 on two procs first", obs.budgets)
	}
	if last := obs.budgets[len(obs.budgets)-1]; last != 2 {
		t.Errorf("slot 0's budgets %v: the world-1 survivor should end on 2 workers", obs.budgets)
	}
	if got := rs.replicas[0].ws.Workers(); got != 2 {
		t.Errorf("survivor's workspace budget %d after the shrink, want 2", got)
	}
}

// TestElasticBudgetExhausted: with no shrink budget the crash
// surfaces, still carrying the ErrCrashed sentinel.
func TestElasticBudgetExhausted(t *testing.T) {
	cfg := elasticCfg()
	cfg.Chaos = crashPlan()
	cfg.MaxRestarts = 0
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("crash with no shrink budget did not fail")
	}
	if !errors.Is(err, faultinject.ErrCrashed) {
		t.Fatalf("error lost the crash sentinel: %v", err)
	}
}

// TestElasticValidation covers the new config knobs.
func TestElasticValidation(t *testing.T) {
	cfg := fastCfg()
	cfg.RejoinEpoch = 2
	if _, err := Run(cfg); err == nil {
		t.Error("RejoinEpoch without Elastic accepted")
	}
	cfg = fastCfg()
	cfg.Elastic = true
	cfg.RejoinEpoch = cfg.Epochs
	if _, err := Run(cfg); err == nil {
		t.Error("RejoinEpoch beyond the run accepted")
	}
	cfg = fastCfg()
	cfg.Elastic = true
	cfg.ResumeFrom = "nope.segc"
	if _, err := Run(cfg); err == nil {
		t.Error("Elastic with ResumeFrom accepted")
	}
}

// TestRollbackReportsMismatch: a snapshot that no longer fits its
// optimiser surfaces as an error from the incarnation's preparation —
// the run fails with it instead of panicking a rank goroutine.
func TestRollbackReportsMismatch(t *testing.T) {
	rs, err := newRunState(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	rs.replicas[0] = rs.newReplica(0, nil)
	rs.replicas[0].commit()
	rs.replicas[0].saved.vel = rs.replicas[0].saved.vel[:1]
	if _, _, err := rs.prepareReplicas([]int{0}, 0); err == nil {
		t.Fatal("rollback onto a mismatched velocity snapshot succeeded")
	}
}
