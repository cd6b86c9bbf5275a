package perfsim

import (
	"runtime"
	"testing"

	"segscale/internal/faultinject"
	"segscale/internal/horovod"
	"segscale/internal/iosim"
	"segscale/internal/model"
	"segscale/internal/mpiprofile"
	"segscale/internal/netmodel"
	"segscale/internal/telemetry"
	"segscale/internal/timeline"
	"segscale/internal/traceanalysis"
)

// BenchmarkSimulator measures the simulator itself: a full 132-GPU,
// 20-step run completes in milliseconds, which is what makes the
// tuning sweeps cheap.
func BenchmarkSimulator(b *testing.B) {
	cfg := Config{GPUs: 132, Model: model.DLv3Plus(), MPI: mpiprofile.MV2GDR(), Horovod: horovod.Default(), Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSimulatorAllocBudget pins the allocations of one whole Run, one
// row per branch of the step loop: the 132-GPU default sweep point
// (recursive doubling for small buffers, the torus hierarchy for large
// ones); 1056 ranks (176 nodes) on the topology-aware two-level
// allreduce, the scale the hierarchical path exists for; the 132-GPU
// point on each other algorithm, on the binary16 wire, with gradient
// accumulation, with the response cache, under chaos (slow ranks, a
// straggler window and message faults), with the input-pipeline
// model, and with every observer attached (probe metrics, the
// designated timeline step, a step observer and the attribution
// ledger). The step loop draws its per-step state from pools and caches
// the fusion plan and node partitions, so a leak in it costs at least
// one allocation per simulated step. A single Run's count can read 2
// over the usual one (a map's overflow buckets depend on its random
// hash seed), so each row is the mean of three Runs, rounded down, and
// may stray 2 from its pin. Further below is a gain the table must
// record.
func TestSimulatorAllocBudget(t *testing.T) {
	const slack = 2
	withAlg := func(alg netmodel.Algorithm) func(*Config) {
		return func(c *Config) { c.Horovod.Algorithm = alg }
	}
	for _, row := range []struct {
		name string
		gpus int
		set  func(*Config)
		pin  float64
	}{
		{"gpus_132", 132, nil, 2899},
		{"gpus_1056_hier", 1056, withAlg(netmodel.AlgHierTwoLevel), 3571},
		{"gpus_132_ring", 132, withAlg(netmodel.AlgRing), 2761},
		{"gpus_132_rabenseifner", 132, withAlg(netmodel.AlgRabenseifner), 2774},
		{"gpus_132_leader", 132, withAlg(netmodel.AlgHierLeader), 2890},
		{"gpus_132_fp16", 132, func(c *Config) { c.Horovod.FP16Compression = true }, 2899},
		{"gpus_132_accum2", 132, func(c *Config) { c.Horovod.BackwardPassesPerStep = 2 }, 1541},
		{"gpus_132_cache", 132, func(c *Config) { c.Horovod.ResponseCache = true }, 2899},
		{"gpus_132_chaos", 132, func(c *Config) {
			c.SlowRanks, c.SlowFactor = 2, 1.2
			c.Chaos = &faultinject.Plan{
				Seed: 5, DropRate: 0.1, DupRate: 0.1, DelayRate: 0.1,
				Stragglers: []faultinject.Straggler{{Rank: 3, Factor: 2, FromStep: 2, ToStep: 6}},
			}
		}, 3686},
		{"gpus_132_io", 132, func(c *Config) { io := iosim.Default(); c.IO = &io }, 2899},
		{"gpus_132_observed", 132, func(c *Config) {
			col := telemetry.NewCollector()
			c.Probe = col.NewProbe("sim", telemetry.NewStepClock())
			c.Timeline = timeline.New()
			c.Attribution = &traceanalysis.LedgerRecorder{}
		}, 5578},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := Config{GPUs: row.gpus, Model: model.DLv3Plus(), MPI: mpiprofile.MV2GDR(), Horovod: horovod.Default(), Seed: 1}
			if row.set != nil {
				row.set(&cfg)
			}
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			got := testing.AllocsPerRun(3, func() { _, _ = Run(cfg) })
			t.Logf("allocs/run: %.0f (pin %.0f ± %d)", got, row.pin, slack)
			switch {
			case got > row.pin+slack:
				t.Errorf("Run allocates %.0f times, pinned at %.0f ± %d", got, row.pin, slack)
			case got < row.pin-slack:
				t.Errorf("Run allocates %.0f times, below its pin of %.0f ± %d: re-pin to %.0f", got, row.pin, slack, got)
			}
		})
	}
}
