// Package summitseg is the public API of segscale, a reproduction of
// "Efficient Training of Semantic Image Segmentation on Summit using
// Horovod and MVAPICH2-GDR" (Anthony et al., IPDPSW 2020).
//
// It exposes the four things the paper does:
//
//   - Simulate: distributed-training performance on a Summit-like
//     machine for a model profile under a Horovod/MPI configuration
//     (discrete-event simulation with calibrated compute times);
//   - Tune: the paper's staged knob-tuning methodology, which finds
//     near-linear-scaling configurations without modifying Horovod,
//     MPI, or the model;
//   - Train: real distributed data-parallel training of a scaled-down
//     DeepLab-v3+ on a synthetic VOC-21 dataset with real collectives
//     (the accuracy experiment);
//   - Microbench: osu_allreduce-style latency tables for the modelled
//     MPI libraries.
//
// See DESIGN.md for what is simulated versus real, and EXPERIMENTS.md
// for the paper-vs-measured comparison of every figure and table.
package summitseg

import (
	"fmt"
	"os"
	"time"

	"segscale/internal/core"
	"segscale/internal/faultinject"
	"segscale/internal/horovod"
	"segscale/internal/iosim"
	"segscale/internal/model"
	"segscale/internal/modelhealth"
	"segscale/internal/mpiprofile"
	"segscale/internal/netmodel"
	"segscale/internal/obs"
	"segscale/internal/perfsim"
	"segscale/internal/telemetry"
	"segscale/internal/timeline"
	"segscale/internal/topology"
	"segscale/internal/traceanalysis"
	"segscale/internal/train"
	"segscale/internal/transport"
)

// Re-exported configuration types. The underlying packages carry the
// full documentation.
type (
	// HorovodConfig is the HOROVOD_* knob set.
	HorovodConfig = horovod.Config
	// MPIProfile is an MPI library behaviour model ("spectrum",
	// "mv2gdr").
	MPIProfile = mpiprofile.Profile
	// ModelProfile is a full-size network description (DLv3+,
	// ResNet-50).
	ModelProfile = model.Profile
	// SimResult is one simulated run's aggregate outcome.
	SimResult = perfsim.Result
	// TrainConfig configures real distributed training.
	TrainConfig = train.Config
	// TrainResult is the real-training outcome with per-epoch metrics.
	TrainResult = train.Result
	// TuneReport is the staged-tuning outcome.
	TuneReport = core.TuneReport
	// ScalingPoint is one (config, GPU count) scaling measurement.
	ScalingPoint = core.ScalingPoint
	// Timeline records Horovod-style phase traces.
	Timeline = timeline.Recorder
	// Telemetry collects per-rank spans and metrics and exports them
	// as a Chrome trace or Prometheus text.
	Telemetry = telemetry.Collector
	// TelemetryProbe is one lane's instrumentation handle.
	TelemetryProbe = telemetry.Probe
	// ChaosPlan is a deterministic fault-injection plan: seed-driven
	// message drop/duplication/delay rates, scheduled rank crashes,
	// and straggler windows. Attach one via TrainConfig.Chaos (real
	// training with checkpoint-restart recovery) or SimOptions.Chaos
	// (performance simulation).
	ChaosPlan = faultinject.Plan
	// FlightRecorder is the always-on bounded ring of recent telemetry
	// events, dumpable as a Chrome trace mid-run (see
	// Telemetry.EnableFlight).
	FlightRecorder = telemetry.FlightRecorder
	// StepObserver receives per-step completion notifications from the
	// trainer (TrainConfig.StepObs).
	StepObserver = telemetry.StepObserver
	// ObsServer is the training run's live observability HTTP server
	// (/metrics, /healthz, /readyz, /debug/flight, /debug/alerts,
	// /debug/health, /debug/pprof).
	ObsServer = obs.Server
	// ObsServerOptions configures NewObsServer.
	ObsServerOptions = obs.ServerOptions
	// AlertLog is the run's alert log (restarts, health sentinel
	// trips).
	AlertLog = obs.AlertLog
	// ObsAlert is one structured alert from the alert log.
	ObsAlert = obs.Alert
	// RunManifest is the per-run record written under results/runs/.
	RunManifest = obs.Manifest
	// PromFlusher periodically re-exports metrics to disk (atomic
	// temp-file + rename), so a crashed run still leaves usable data.
	PromFlusher = obs.PromFlusher
	// TransportWorld is one incarnation of the in-process rank world —
	// what TrainConfig.OnWorld hands to observers.
	TransportWorld = transport.World
)

// NewObsServer builds (without starting) the observability HTTP
// server; call its Start method to listen and serve in the
// background, TrackWorld from a TrainConfig.OnWorld hook to feed
// liveness, and Close when the run ends.
func NewObsServer(o ObsServerOptions) *ObsServer { return obs.NewServer(o) }

// NewAlertLog builds a run's alert log, counting its alerts through
// col (which may be nil). Feed it with Event and Report; serve it via
// ObsServerOptions.Alerts and persist it in a RunManifest.
func NewAlertLog(col *Telemetry) *AlertLog { return obs.NewAlertLog(col) }

// NewPromFlusher re-exports col's metrics to path every `every` step
// observations. Combine with other observers via MultiStepObserver.
func NewPromFlusher(col *Telemetry, path string, every int) *PromFlusher {
	return obs.NewPromFlusher(col, path, every)
}

// MultiStepObserver fans step notifications out to several observers,
// skipping nils (nil when none remain).
func MultiStepObserver(o ...StepObserver) StepObserver { return telemetry.MultiObserver(o...) }

// FlushPrometheus atomically writes col's current metrics to path in
// Prometheus text format.
func FlushPrometheus(col *Telemetry, path string) error { return obs.FlushPrometheus(col, path) }

// WriteFlightTrace atomically dumps a flight recorder's retained
// window to path as a Chrome trace (a nil recorder is a no-op).
func WriteFlightTrace(f *FlightRecorder, path string) error { return obs.WriteFlightTrace(f, path) }

// DumpFlightOnSignal dumps the flight recorder to path on every
// SIGQUIT until the returned stop function runs. report (optional)
// receives dump errors.
func DumpFlightOnSignal(f *FlightRecorder, path string, report func(error)) (stop func()) {
	return obs.DumpFlightOnSignal(f, path, report)
}

// WriteRunManifest writes a run manifest atomically under dir
// (conventionally "results/runs") and returns the file path.
func WriteRunManifest(dir string, m RunManifest) (string, error) { return obs.WriteManifest(dir, m) }

// GitRev returns the VCS revision baked into the running binary, or
// "unknown" for go-run builds.
func GitRev() string { return obs.GitRev() }

// ParseChaosSpec parses a compact chaos-plan spec such as
// "seed=7;drop=0.01;crash=1@40;slow=2*1.5@10-60". See
// faultinject.ParseSpec for the clause grammar.
func ParseChaosSpec(spec string) (*ChaosPlan, error) { return faultinject.ParseSpec(spec) }

// RandomChaosPlan derives a recoverable chaos plan (low-rate message
// faults plus one straggler, no crashes) entirely from the seed.
func RandomChaosPlan(seed int64, world int) *ChaosPlan { return faultinject.RandomPlan(seed, world) }

// NewTelemetry returns an empty telemetry collector. Attach it via
// TrainConfig.Telemetry or SimOptions.Telemetry, then export with its
// WriteChromeTrace / WritePrometheus methods.
func NewTelemetry() *Telemetry { return telemetry.NewCollector() }

// DefaultHorovod returns Horovod's out-of-the-box knobs.
func DefaultHorovod() HorovodConfig { return horovod.Default() }

// TunedHorovod returns the knobs the staged tuner converges to on the
// DLv3+ workload.
func TunedHorovod() HorovodConfig { return core.TunedCandidate().Candidate.Horovod }

// Algorithm names an allreduce implementation strategy for
// HorovodConfig.Algorithm.
type Algorithm = netmodel.Algorithm

// AlgorithmByName parses an allreduce algorithm name: "auto", "ring",
// "recursive-doubling", "rabenseifner", "hier-leader", "hier-torus",
// or "hier-2level" (the topology-aware two-level composition).
func AlgorithmByName(name string) (Algorithm, error) { return netmodel.AlgorithmByName(name) }

// MPIByName returns a built-in MPI profile ("spectrum" or "mv2gdr").
func MPIByName(name string) (*MPIProfile, error) { return mpiprofile.ByName(name) }

// ModelByName returns a built-in model profile ("dlv3plus" or
// "resnet50").
func ModelByName(name string) (*ModelProfile, error) { return model.ByName(name) }

// PaperScales returns the paper's GPU counts: 1, 6, …, 132.
func PaperScales() []int { return topology.PaperScales() }

// IOConfig models the input pipeline (GPFS reads, decode workers,
// prefetch depth).
type IOConfig = iosim.Config

// DefaultIO returns the Summit/Alpine input-pipeline model.
func DefaultIO() IOConfig { return iosim.Default() }

// SimOptions configures Simulate.
type SimOptions struct {
	GPUs    int
	Model   *ModelProfile
	MPI     *MPIProfile
	Horovod HorovodConfig
	Seed    int64
	// Steps simulated (0 = default).
	Steps int
	// CyclicPlacement round-robins MPI ranks across nodes instead of
	// jsrun's block order (an anti-pattern worth measuring).
	CyclicPlacement bool
	// IO, when non-nil, adds the input-pipeline model.
	IO *IOConfig
	// Timeline, when non-nil, captures one step's phase trace.
	Timeline *Timeline
	// Telemetry, when non-nil, receives the simulator's metrics
	// (step-time and per-buffer communication histograms, wire-byte
	// counters, DES queue depth) on a lane named after the GPU count.
	Telemetry *Telemetry
	// Chaos, when non-nil, injects deterministic faults (stragglers,
	// message drop/duplication/delay) into the simulated run.
	Chaos *ChaosPlan
	// Attribution, when non-nil, receives per-(step, rank) attribution
	// ledger rows: each rank's step wall time decomposed into buckets
	// that sum to it exactly, with idle waits blamed on the pacing
	// rank. Persist with WriteAttribution, diff with seg-compare.
	Attribution *AttributionRecorder
}

// AttributionRecorder accumulates step-time attribution rows (see
// SimOptions.Attribution).
type AttributionRecorder = traceanalysis.LedgerRecorder

// AttributionLedger is the serialised attribution table seg-compare
// consumes.
type AttributionLedger = traceanalysis.Ledger

// NewAttributionRecorder returns a recorder for a run with the given
// source label ("perfsim", "trace") and rank count.
func NewAttributionRecorder(source string, ranks int) *AttributionRecorder {
	return traceanalysis.NewLedgerRecorder(source, ranks)
}

// AttributeTelemetry assembles the collector's recorded spans into the
// cross-rank happens-before DAG and decomposes every rank's TRAIN_STEP
// window into the attribution buckets — the trace-side route to the
// same ledger the simulator records natively, used by dlv3-train
// -attr-out and trace-stats.
func AttributeTelemetry(col *Telemetry) (*AttributionLedger, error) {
	rec := col.Timeline()
	return traceanalysis.AttributeTrace(rec, traceanalysis.BuildDAG(rec))
}

// WriteAttribution writes the recorder's ledger to path as canonical
// JSON (sorted rows, deterministic bytes for deterministic runs).
func WriteAttribution(rec *AttributionRecorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.Ledger().WriteLedger(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// HealthPlane is the training-health plane: per-layer gradient and
// activation statistics with divergence sentinels, collected inside
// the train step. Attach via TrainConfig.Health, serve live via
// ObsServerOptions.Health, persist with WriteHealthLedger, and diff
// two runs' ledgers with seg-compare.
type HealthPlane = modelhealth.Plane

// HealthConfig tunes health collection cadence and sentinel
// thresholds.
type HealthConfig = modelhealth.Config

// HealthAlert is one sentinel trip with (layer, rank, step,
// incarnation) provenance.
type HealthAlert = modelhealth.Alert

// NewHealthPlane builds a training-health plane with defaults applied.
func NewHealthPlane(cfg HealthConfig) *HealthPlane { return modelhealth.New(cfg) }

// WriteHealthLedger writes the plane's health ledger to path as
// deterministic JSONL (header line, then rows sorted by (step, rank,
// inc, kind, layer) — byte-identical across same-seed reruns).
func WriteHealthLedger(p *HealthPlane, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := p.WriteLedger(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Simulate runs the performance simulator for one configuration.
func Simulate(opts SimOptions) (*SimResult, error) {
	placement := perfsim.PlacementPacked
	if opts.CyclicPlacement {
		placement = perfsim.PlacementCyclic
	}
	// The simulator runs on virtual time; the probe's clock only
	// stamps span-free metrics, so the deterministic step counter is
	// the right choice.
	lane := fmt.Sprintf("gpus%d", opts.GPUs)
	probe := opts.Telemetry.NewProbe(lane, telemetry.NewStepClock())
	return perfsim.Run(perfsim.Config{
		GPUs: opts.GPUs, Model: opts.Model, MPI: opts.MPI,
		Horovod: opts.Horovod, Seed: opts.Seed, Steps: opts.Steps,
		Placement: placement, IO: opts.IO,
		Timeline: opts.Timeline, Probe: probe, Chaos: opts.Chaos, Attribution: opts.Attribution,
	})
}

// Scaling runs the paper's scaling study: the default and tuned
// configurations across the given GPU counts (PaperScales() if nil).
func Scaling(scales []int, prof *ModelProfile, seed int64) ([]ScalingPoint, error) {
	if scales == nil {
		scales = PaperScales()
	}
	return core.ScalingStudy(scales, prof,
		[]core.NamedCandidate{core.DefaultCandidate(), core.TunedCandidate()}, seed)
}

// Tune runs the staged tuning methodology at the given scale.
func Tune(gpus int, prof *ModelProfile, seed int64) (*TuneReport, error) {
	return core.NewTuner(gpus, prof, seed).StagedTune(core.DefaultSpace())
}

// Train runs real distributed training (see train.Config for knobs).
func Train(cfg TrainConfig) (*TrainResult, error) { return train.Run(cfg) }

// DefaultTraining returns a training configuration that converges on
// a laptop in seconds.
func DefaultTraining() TrainConfig { return train.DefaultConfig() }

// EnableMixedPrecision switches a training configuration to the
// paper's fp16 recipe: gradients cross the allreduce wire as binary16
// (2 bytes per element) while master weights and the optimiser stay
// float32, protected by dynamic loss scaling. A non-zero lossScale
// must be a positive power of two; zero keeps the default (1024).
func EnableMixedPrecision(cfg *TrainConfig, lossScale float64) {
	cfg.MixedPrecision = true
	cfg.LossScale = lossScale
}

// LatencyRow is one osu_allreduce-style measurement.
type LatencyRow struct {
	Bytes     int
	LatencyUS float64 // microseconds
}

// AllreduceLatency produces an osu_allreduce-style latency table for
// the given MPI profile across message sizes on `nodes` full Summit
// nodes, using the library's automatic algorithm selection.
func AllreduceLatency(mpi *MPIProfile, nodes int, sizes []int) ([]LatencyRow, error) {
	return CollectiveLatency("allreduce", mpi, nodes, sizes)
}

// CollectiveLatency generalises AllreduceLatency to the other
// osu-benchmark operations: "allreduce", "bcast", "allgather",
// "reduce-scatter".
func CollectiveLatency(op string, mpi *MPIProfile, nodes int, sizes []int) ([]LatencyRow, error) {
	mach := topology.Summit(nodes)
	net, err := netmodel.New(mach, mpi)
	if err != nil {
		return nil, err
	}
	ranks := net.WorldRanks()
	out := make([]LatencyRow, 0, len(sizes))
	for _, n := range sizes {
		if n < 0 {
			return nil, fmt.Errorf("summitseg: negative message size %d", n)
		}
		var t float64
		switch op {
		case "allreduce":
			t = net.Allreduce(netmodel.AlgAuto, ranks, n)
		case "bcast":
			t = net.Bcast(ranks, n)
		case "allgather":
			t = net.AllgatherRing(ranks, n)
		case "reduce-scatter":
			t = net.ReduceScatterRing(ranks, n)
		default:
			return nil, fmt.Errorf("summitseg: unknown collective %q", op)
		}
		out = append(out, LatencyRow{Bytes: n, LatencyUS: t * 1e6})
	}
	return out, nil
}

// OSUMessageSizes returns the power-of-four size ladder osu_allreduce
// sweeps (4 B … 64 MiB).
func OSUMessageSizes() []int {
	var out []int
	for n := 4; n <= 64<<20; n *= 4 {
		out = append(out, n)
	}
	return out
}

// FormatDuration renders seconds for tables.
func FormatDuration(sec float64) string {
	return time.Duration(float64(time.Second) * sec).Round(10 * time.Microsecond).String()
}
