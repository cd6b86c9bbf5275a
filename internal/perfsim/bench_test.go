package perfsim

import (
	"runtime"
	"testing"

	"segscale/internal/horovod"
	"segscale/internal/model"
	"segscale/internal/mpiprofile"
	"segscale/internal/netmodel"
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

// TestSimulatorAllocBudget pins the allocations of one whole Run: the
// 132-GPU default sweep point, and 1056 ranks (176 nodes) on the
// topology-aware two-level allreduce, the scale the hierarchical path
// exists for. The step loop draws its per-step state from pools and
// caches the fusion plan and node partitions, so a leak in it costs at
// least one allocation per simulated step. A single Run's count can
// read 2 over the usual one (a map's overflow buckets depend on its
// random hash seed), so each row is the mean of three Runs, rounded
// down, and may stray 2 from its pin. Further below is a gain the
// table must record.
func TestSimulatorAllocBudget(t *testing.T) {
	const slack = 2
	hier := horovod.Default()
	hier.Algorithm = netmodel.AlgHierTwoLevel
	for _, row := range []struct {
		name string
		gpus int
		hvd  horovod.Config
		pin  float64
	}{
		{"gpus_132", 132, horovod.Default(), 2900},
		{"gpus_1056_hier", 1056, hier, 3573},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := Config{GPUs: row.gpus, Model: model.DLv3Plus(), MPI: mpiprofile.MV2GDR(), Horovod: row.hvd, Seed: 1}
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
