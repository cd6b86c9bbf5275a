package summitseg

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"segscale/internal/timeline"
	"segscale/internal/traceanalysis"
)

func TestLookupHelpers(t *testing.T) {
	for _, name := range []string{"spectrum", "mv2gdr"} {
		if _, err := MPIByName(name); err != nil {
			t.Errorf("MPIByName(%q): %v", name, err)
		}
	}
	for _, name := range []string{"dlv3plus", "resnet50"} {
		if _, err := ModelByName(name); err != nil {
			t.Errorf("ModelByName(%q): %v", name, err)
		}
	}
	if _, err := MPIByName("nope"); err == nil {
		t.Error("unknown MPI accepted")
	}
	if s := PaperScales(); s[len(s)-1] != 132 {
		t.Error("paper scales wrong")
	}
}

func TestSimulateFacade(t *testing.T) {
	mpi, _ := MPIByName("mv2gdr")
	prof, _ := ModelByName("dlv3plus")
	res, err := Simulate(SimOptions{GPUs: 12, Model: prof, MPI: mpi, Horovod: DefaultHorovod(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ImgPerSec <= 0 || res.GPUs != 12 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestScalingFacade(t *testing.T) {
	prof, _ := ModelByName("dlv3plus")
	points, err := Scaling([]int{1, 6}, prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 { // 2 configs × 2 scales
		t.Fatalf("%d points", len(points))
	}
}

func TestTunedHorovodDiffersFromDefault(t *testing.T) {
	d, tu := DefaultHorovod(), TunedHorovod()
	if d == tu {
		t.Fatal("tuned config identical to default")
	}
	if tu.FusionThreshold <= 0 || tu.CycleTime <= 0 {
		t.Fatal("tuned config invalid")
	}
}

func TestTrainFacade(t *testing.T) {
	cfg := DefaultTraining()
	cfg.Model.InputSize = 16
	cfg.Model.Width = 6
	cfg.Model.DeepBlocks = 1
	cfg.Model.AtrousRates = [3]int{1, 2, 3}
	cfg.Epochs = 2
	cfg.TrainSize = 8
	cfg.EvalSize = 4
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 2 {
		t.Fatalf("history %d", len(res.History))
	}
}

func TestAllreduceLatencyTable(t *testing.T) {
	mv2, _ := MPIByName("mv2gdr")
	spec, _ := MPIByName("spectrum")
	sizes := OSUMessageSizes()
	if sizes[0] != 4 || sizes[len(sizes)-1] != 64<<20 {
		t.Fatalf("OSU sizes %v", sizes[:3])
	}
	rowsM, err := AllreduceLatency(mv2, 2, sizes)
	if err != nil {
		t.Fatal(err)
	}
	rowsS, err := AllreduceLatency(spec, 2, sizes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rowsM {
		if rowsM[i].LatencyUS <= 0 || rowsM[i].LatencyUS >= rowsS[i].LatencyUS {
			t.Errorf("size %d: MV2 %.2fµs vs Spectrum %.2fµs", rowsM[i].Bytes, rowsM[i].LatencyUS, rowsS[i].LatencyUS)
		}
	}
	if _, err := AllreduceLatency(mv2, 2, []int{-1}); err == nil {
		t.Error("negative size accepted")
	}
}

func TestCollectiveLatencyOps(t *testing.T) {
	mv2, _ := MPIByName("mv2gdr")
	sizes := []int{1024, 1 << 20}
	for _, op := range []string{"allreduce", "bcast", "allgather", "reduce-scatter"} {
		rows, err := CollectiveLatency(op, mv2, 2, sizes)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		for _, r := range rows {
			if r.LatencyUS <= 0 {
				t.Fatalf("%s: non-positive latency for %d bytes", op, r.Bytes)
			}
		}
	}
	if _, err := CollectiveLatency("alltoall", mv2, 2, sizes); err == nil {
		t.Error("unknown op accepted")
	}
}

func TestSimulateWithExtensions(t *testing.T) {
	mpi, _ := MPIByName("mv2gdr")
	prof, _ := ModelByName("dlv3plus")
	io := DefaultIO()
	res, err := Simulate(SimOptions{GPUs: 12, Model: prof, MPI: mpi,
		Horovod: DefaultHorovod(), Seed: 1, IO: &io})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataStallSec != 0 {
		t.Fatal("prefetching pipeline should not stall")
	}
	cyc, err := Simulate(SimOptions{GPUs: 12, Model: prof, MPI: mpi,
		Horovod: DefaultHorovod(), Seed: 1, CyclicPlacement: true})
	if err != nil {
		t.Fatal(err)
	}
	if cyc.ImgPerSec <= 0 {
		t.Fatal("cyclic run broken")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestFormatDuration(t *testing.T) {
	if s := FormatDuration(0.001234); s == "" || math.IsNaN(0) {
		t.Fatalf("format: %q", s)
	}
}

func TestAttributionFacade(t *testing.T) {
	mpi, _ := MPIByName("mv2gdr")
	prof, _ := ModelByName("dlv3plus")
	rec := NewAttributionRecorder("perfsim", 6)
	if _, err := Simulate(SimOptions{
		GPUs: 6, Model: prof, MPI: mpi, Horovod: DefaultHorovod(),
		Seed: 1, Steps: 3, Attribution: rec,
	}); err != nil {
		t.Fatal(err)
	}
	// Steps=3 with the default 2 warmup steps leaves one measured
	// step, one ledger row per rank.
	if got := rec.Len(); got != 6 {
		t.Fatalf("recorder rows = %d, want 6", got)
	}
	l := rec.Ledger()
	if err := l.Validate(0); err != nil {
		t.Fatalf("simulated ledger invalid: %v", err)
	}

	path := filepath.Join(t.TempDir(), "ledger.json")
	if err := WriteAttribution(rec, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := traceanalysis.ReadLedger(f)
	if err != nil {
		t.Fatalf("written ledger unreadable: %v", err)
	}
	if back.Ranks != 6 || len(back.Steps) != 6 || back.Source != "perfsim" {
		t.Fatalf("round-trip ledger %d ranks %d rows source %q", back.Ranks, len(back.Steps), back.Source)
	}
	if err := WriteAttribution(rec, filepath.Join(path, "nope")); err == nil {
		t.Error("WriteAttribution to an impossible path succeeded")
	}
}

func TestAttributeTelemetryFacade(t *testing.T) {
	cfg := DefaultTraining()
	cfg.Model.InputSize = 16
	cfg.Model.Width = 6
	cfg.Model.DeepBlocks = 1
	cfg.Model.AtrousRates = [3]int{1, 2, 3}
	cfg.Epochs = 1
	cfg.TrainSize = 4
	cfg.EvalSize = 2
	col := NewTelemetry()
	cfg.Telemetry = col
	if _, err := Train(cfg); err != nil {
		t.Fatal(err)
	}
	l, err := AttributeTelemetry(col)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(0); err != nil {
		t.Fatalf("trace-side ledger invalid: %v", err)
	}
	if len(l.Steps) == 0 || l.Source != "trace" {
		t.Fatalf("ledger %d rows source %q", len(l.Steps), l.Source)
	}
}

// TestAttributeTelemetryMatchesChromeRoundTrip runs a world-2 trainer
// through a crash and restart, whose "rank0.r1" lanes do not sort in
// rank order, and requires the saved Chrome trace to attribute to the
// same ledger as the in-memory collector: lane names, and with them
// every row's rank, must survive the file.
func TestAttributeTelemetryMatchesChromeRoundTrip(t *testing.T) {
	cfg := DefaultTraining()
	cfg.Model.InputSize = 16
	cfg.Model.Width = 6
	cfg.Model.DeepBlocks = 1
	cfg.Model.AtrousRates = [3]int{1, 2, 3}
	cfg.World = 2
	cfg.Epochs = 3
	cfg.TrainSize = 24
	cfg.EvalSize = 4
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "ckpt.segc")
	cfg.MaxRestarts = 1
	plan, err := ParseChaosSpec("crash=1@5")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = plan
	col := NewTelemetry()
	cfg.Telemetry = col
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.Restarts)
	}
	direct, err := AttributeTelemetry(col)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	rec, err := timeline.ReadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	read, err := traceanalysis.AttributeTrace(rec, traceanalysis.BuildDAG(rec))
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := direct.WriteLedger(&want); err != nil {
		t.Fatal(err)
	}
	if err := read.WriteLedger(&got); err != nil {
		t.Fatal(err)
	}
	if direct.Ranks != cfg.World {
		t.Errorf("in-memory ledger: %d ranks, want %d", direct.Ranks, cfg.World)
	}
	if got.String() != want.String() {
		t.Errorf("ledger read back from the Chrome trace (%d ranks, %d rows) differs from the in-memory one (%d ranks, %d rows)",
			read.Ranks, len(read.Steps), direct.Ranks, len(direct.Steps))
	}
}
