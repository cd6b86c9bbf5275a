package train

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"segscale/internal/deeplab"
	"segscale/internal/metrics"
	"segscale/internal/obs"
	"segscale/internal/segdata"
	"segscale/internal/telemetry"
	"segscale/internal/tensor"
	"segscale/internal/transport"
)

// TestObsPlaneDoesNotChangeResults is the observability no-op
// contract, one level up from the telemetry test: a run with the FULL
// live plane attached — collector, flight recorder, metrics flusher and
// step counter consuming every step, the alert log behind the server,
// liveness tracking through OnWorld — must produce numerically
// identical training results to a bare run.
func TestObsPlaneDoesNotChangeResults(t *testing.T) {
	cfg := fastCfg()
	cfg.World = 2
	cfg.Epochs = 2

	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	instrumented := cfg
	instrumented.Telemetry = telemetry.NewCollector()
	flight := instrumented.Telemetry.EnableFlight(256)
	// What dlv3-train attaches: a metrics flusher behind StepObs, and
	// the alert log behind the server.
	alerts := obs.NewAlertLog(instrumented.Telemetry)
	steps := &countingObserver{}
	promPath := filepath.Join(t.TempDir(), "m.prom")
	flusher := obs.NewPromFlusher(instrumented.Telemetry, promPath, 1)
	instrumented.StepObs = telemetry.MultiObserver(flusher, steps)
	srv := obs.NewServer(obs.ServerOptions{Telemetry: instrumented.Telemetry, Alerts: alerts})
	var worldsSeen atomic.Int32
	instrumented.OnWorld = func(w *transport.World, inc int) {
		srv.TrackWorld(w, inc)
		worldsSeen.Add(1)
	}
	observed, err := Run(instrumented)
	if err != nil {
		t.Fatal(err)
	}

	// The plane must actually have been live, or this test proves
	// nothing.
	if worldsSeen.Load() != 1 {
		t.Fatalf("OnWorld fired %d times, want 1", worldsSeen.Load())
	}
	if flight.Total() == 0 {
		t.Fatal("flight recorder saw no events")
	}
	if steps.n.Load() == 0 {
		t.Fatal("no step observer saw a step")
	}
	if _, err := os.Stat(promPath); err != nil {
		t.Fatalf("the metrics flusher wrote nothing: %v", err)
	}

	// Results must match bit-for-bit once the observer hooks themselves
	// (pointers, funcs, NaN-holding map) are factored out.
	a, b := *bare, *observed
	a.Config.Telemetry, b.Config.Telemetry = nil, nil
	a.Config.StepObs, b.Config.StepObs = nil, nil
	a.Config.OnWorld, b.Config.OnWorld = nil, nil
	for k := range a.FinalPerClassIOU {
		x, y := a.FinalPerClassIOU[k], b.FinalPerClassIOU[k]
		if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
			t.Errorf("class %d IOU differs: %g vs %g", k, x, y)
		}
	}
	a.FinalPerClassIOU, b.FinalPerClassIOU = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Errorf("observability plane changed the training result:\nbare:     %+v\nobserved: %+v", a, b)
	}
}

// countingObserver counts step notifications, from any rank's goroutine.
type countingObserver struct{ n atomic.Int64 }

func (c *countingObserver) ObserveStep(string, int, int, float64) { c.n.Add(1) }

// TestEvalAllocBudget pins the pooled evaluation path at GOMAXPROCS=1:
// one evaluate() call over a 16-image shard (4 batches), and what each
// batch costs — either model's PredictInto with its workspace Reset, as
// evaluate runs it, and the ArgmaxClassInto under it. On one worker
// every kernel takes its closure-free serial branch, so a warm batch
// allocates nothing. evaluate()'s count is its shard's ids, the
// confusion matrix, its two reused label slices and the batches' scene
// rendering (BatchInto). Every row reads the same count on every run
// and is exact.
func TestEvalAllocBudget(t *testing.T) {
	cfg := deeplab.DefaultConfig()
	ds := segdata.New(16, cfg.InputSize, cfg.InputSize, 7)
	x, _ := ds.Batch([]int{0, 1, 2, 3})
	pred := make([]int32, 4*cfg.InputSize*cfg.InputSize)
	logits := tensor.New(4, segdata.NumClasses, cfg.InputSize, cfg.InputSize)
	pooled := func(net deeplab.Segmenter) (deeplab.Segmenter, *tensor.Workspace) {
		ws := tensor.NewWorkspace()
		net.SetWorkspace(ws)
		return net, ws
	}
	dl, dlWS := pooled(deeplab.New(cfg))
	fcn, fcnWS := pooled(deeplab.NewFCN(cfg))

	for _, row := range []struct {
		name string
		call func()
		pin  float64
	}{
		{"evaluate_16img", func() { evaluate(dl, ds, 1, 0, dlWS) }, 57},
		{"deeplab_PredictInto", func() { dlWS.Reset(); dl.PredictInto(x, pred) }, 0},
		{"fcn_PredictInto", func() { fcnWS.Reset(); fcn.PredictInto(x, pred) }, 0},
		{"ArgmaxClassInto", func() { tensor.ArgmaxClassInto(logits, pred, dlWS) }, 0},
	} {
		t.Run(row.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			row.call()
			row.call()
			checkAllocRow(t, testing.AllocsPerRun(3, row.call), row.pin, 0)
		})
	}
}

// TestEvaluateMatchesHeapPath holds the pooled evaluation path to the
// workspace contract: a tensor drawn from the arena is dead at the next
// Reset. evaluate Resets between batches, so over a 4-batch shard any
// arena tensor kept past a Reset and then used — stored in a global,
// captured by a goroutine, returned past the Reset, or handed to a
// callee that keeps it — reads recycled memory, and the confusion
// matrix leaves the heap path's. The reference is evaluate's loop on
// heap tensors, written out so that nothing it computes passes through
// evaluate; the second pooled call runs on a warm arena.
func TestEvaluateMatchesHeapPath(t *testing.T) {
	cfg := deeplab.DefaultConfig()
	ds := segdata.New(16, cfg.InputSize, cfg.InputSize, 7)
	ref := deeplab.New(cfg)
	pred := make([]int32, 4*cfg.InputSize*cfg.InputSize)
	conf := metrics.NewConfusion(segdata.NumClasses)
	for lo := 0; lo < ds.Len(); lo += 4 {
		x, labels := ds.Batch([]int{lo, lo + 1, lo + 2, lo + 3})
		conf.Update(labels, ref.PredictInto(x, pred), segdata.IgnoreLabel)
	}
	want := conf.M

	net := deeplab.New(cfg)
	ws := tensor.NewWorkspace()
	net.SetWorkspace(ws)
	for call := 0; call < 2; call++ {
		got := evaluate(net, ds, 1, 0, ws).M
		diff := 0
		for i := range got {
			if got[i] != want[i] {
				diff++
			}
		}
		if diff > 0 {
			t.Fatalf("call %d: pooled evaluate's confusion matrix differs from the heap path's in %d of %d cells", call, diff, len(want))
		}
	}
}
