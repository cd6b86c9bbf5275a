package mpiprofile_test

import (
	"strings"
	"testing"

	"segscale/internal/core"
	"segscale/internal/horovod"
	"segscale/internal/mpiprofile"
)

// The MV2_* variables are parsed and rendered by the knob table
// (internal/core/knobs.go); these tests hold Profile's side of it.

// knobs binds p, beside default Horovod knobs, to the table.
func knobs(p *mpiprofile.Profile) core.Knobs {
	h := horovod.Default()
	return core.Knobs{Horovod: &h, MPI: p}
}

func applyEnv(p *mpiprofile.Profile, env ...string) error { return knobs(p).Apply(env) }

func TestEnvRoundTrip(t *testing.T) {
	p := mpiprofile.MV2GDR()
	p.CUDABlockSize = 512 * mpiprofile.KiB
	p.GPUDirectLimit = 32 * mpiprofile.KiB
	env := knobs(p).Render(false)

	q := mpiprofile.MV2GDR()
	if err := applyEnv(q, env...); err != nil {
		t.Fatal(err)
	}
	if *q != *p {
		t.Fatalf("round trip through %q lost knobs: %+v", env, q)
	}
}

func TestEnvContainsRealVariableNames(t *testing.T) {
	joined := strings.Join(knobs(mpiprofile.MV2GDR()).Render(false), " ")
	for _, want := range []string{"MV2_CUDA_BLOCK_SIZE", "MV2_GPUDIRECT_LIMIT", "MV2_USE_GPUDIRECT=1", "MV2_USE_CUDA=1"} {
		if !strings.Contains(joined, want) {
			t.Errorf("env output missing %s: %s", want, joined)
		}
	}
}

func TestApplyEnvErrors(t *testing.T) {
	for _, bad := range []string{
		"NOEQUALS", "MV2_CUDA_BLOCK_SIZE=abc", "MV2_CUDA_BLOCK_SIZE=0", "MV2_GPUDIRECT_LIMIT=-5",
		"MV2_USE_GPUDIRECT=yes", "MV2_USE_CUDA=0",
	} {
		p := mpiprofile.MV2GDR()
		err := applyEnv(p, bad)
		if name, _, _ := strings.Cut(bad, "="); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%q: error %v, want one naming %s", bad, err, name)
		}
		if *p != *mpiprofile.MV2GDR() {
			t.Errorf("%q changed the profile: %+v", bad, p)
		}
	}
	if err := applyEnv(mpiprofile.MV2GDR(), "SOME_OTHER_VAR=7"); err != nil {
		t.Errorf("unknown variable should be ignored: %v", err)
	}
}

func TestApplyEnvTogglesGPUDirect(t *testing.T) {
	p := mpiprofile.MV2GDR()
	if err := applyEnv(p, "MV2_USE_GPUDIRECT=0"); err != nil {
		t.Fatal(err)
	}
	if p.GPUDirect {
		t.Fatal("MV2_USE_GPUDIRECT=0 did not disable GPU-direct")
	}
	if err := applyEnv(p, "MV2_USE_GPUDIRECT=1"); err != nil || !p.GPUDirect {
		t.Fatalf("MV2_USE_GPUDIRECT=1 did not enable GPU-direct (%v)", err)
	}
}
