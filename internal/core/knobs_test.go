package core

import (
	"flag"
	"os"
	"strings"
	"testing"

	"segscale/internal/horovod"
	"segscale/internal/mpiprofile"
	"segscale/internal/netmodel"
)

func defaultKnobs() Knobs {
	h := horovod.Default()
	return Knobs{Horovod: &h, MPI: mpiprofile.MV2GDR()}
}

// TestKnobRowsAcceptAndReject drives every row with the values it must
// take (and render back unchanged) and the ones it must reject, naming
// itself and leaving the knobs alone. A row with no case fails.
func TestKnobRowsAcceptAndReject(t *testing.T) {
	cases := []struct {
		name      string
		good, bad []string
	}{
		{"HOROVOD_CACHE_CAPACITY", []string{"0", "1024"}, []string{"-2", "x", ""}},
		{"HOROVOD_CYCLE_TIME", []string{"3.5", "0.001", "5"}, []string{"0", "-1", "zero", "NaN", "Inf", "1e300", ""}},
		{"HOROVOD_FUSION_THRESHOLD", []string{"0", "262144"}, []string{"-1", "x", "1.5"}},
		{"HOROVOD_HIERARCHICAL_ALLREDUCE", []string{"0", "1"}, []string{"true", "yes", "2", ""}},
		{"MV2_CUDA_BLOCK_SIZE", []string{"1", "524288"}, []string{"0", "abc"}},
		{"MV2_GPUDIRECT_LIMIT", []string{"0", "32768"}, []string{"-5", "x"}},
		{"MV2_IBA_EAGER_LIMIT", []string{"0", "16384"}, []string{"-1", "x"}},
		{"MV2_USE_CUDA", []string{"1"}, []string{"0", "yes"}},
		{"MV2_USE_GPUDIRECT", []string{"0", "1"}, []string{"true", "yes", "2", ""}},
		{"-alg", []string{"ring", "hier-torus", "hier-2level"}, []string{"nope", ""}},
	}
	if len(cases) != len(knobTable) {
		t.Fatalf("%d cases for %d rows", len(cases), len(knobTable))
	}
	for i, c := range cases {
		r := &knobTable[i]
		if r.name != c.name {
			t.Fatalf("case %d is %s, row %d is %s", i, c.name, i, r.name)
		}
		for _, v := range c.good {
			k := defaultKnobs()
			if err := k.Apply([]string{r.name + "=" + v}); err != nil {
				t.Errorf("%s=%q: %v", r.name, v, err)
			} else if r.get(k) != v {
				t.Errorf("%s=%q renders back as %q", r.name, v, r.get(k))
			}
		}
		for _, v := range c.bad {
			k := defaultKnobs()
			err := k.Apply([]string{r.name + "=" + v})
			if err == nil || !strings.Contains(err.Error(), r.name) {
				t.Errorf("%s=%q: error %v, want one naming the row", r.name, v, err)
			}
			if want := defaultKnobs(); *k.Horovod != *want.Horovod || *k.MPI != *want.MPI {
				t.Errorf("%s=%q changed the knobs", r.name, v)
			}
		}
	}
}

// TestKnobBoundaries pins the two values at the edge of a row's range:
// a zero cycle time is rejected, a zero cache capacity turns the
// response cache off.
func TestKnobBoundaries(t *testing.T) {
	h := TunedCandidate().Candidate.Horovod
	k := Knobs{Horovod: &h}
	if err := k.Apply([]string{"HOROVOD_CYCLE_TIME=0"}); err == nil {
		t.Error("HOROVOD_CYCLE_TIME=0 accepted")
	}
	if err := k.Apply([]string{"HOROVOD_CACHE_CAPACITY=0"}); err != nil || k.Horovod.ResponseCache {
		t.Errorf("HOROVOD_CACHE_CAPACITY=0: err %v, ResponseCache %v; want the cache off", err, k.Horovod.ResponseCache)
	}
	if err := k.Apply([]string{"HOROVOD_CACHE_CAPACITY=1"}); err != nil || !k.Horovod.ResponseCache {
		t.Errorf("HOROVOD_CACHE_CAPACITY=1: err %v, ResponseCache %v; want the cache on", err, k.Horovod.ResponseCache)
	}
}

// TestNamedCandidatesRoundTrip renders each named candidate and applies
// the result onto its MPI library's defaults and default Horovod: the
// knobs come back equal, so a job script carries the whole candidate.
func TestNamedCandidatesRoundTrip(t *testing.T) {
	for _, nc := range []NamedCandidate{DefaultCandidate(), NCCLCandidate(), TunedCandidate()} {
		c := nc.Candidate
		env := Knobs{Horovod: &c.Horovod, MPI: c.MPI}.Render(false)
		mpi, err := mpiprofile.ByName(c.MPI.Name)
		if err != nil {
			t.Fatal(err)
		}
		hvd := horovod.Default()
		if err := (Knobs{Horovod: &hvd, MPI: mpi}).Apply(env); err != nil {
			t.Fatalf("%s: %v", nc.Name, err)
		}
		if hvd != c.Horovod || *mpi != *c.MPI {
			t.Errorf("%s through %q: Horovod %+v, want %+v; MPI %+v, want %+v", nc.Name, env, hvd, c.Horovod, *mpi, *c.MPI)
		}
	}
}

// TestKnobsWithoutMPIProfile is the trainer's view: no MV2_* row
// renders, and a set MV2_* variable is an error naming it.
func TestKnobsWithoutMPIProfile(t *testing.T) {
	h := horovod.Default()
	k := Knobs{Horovod: &h}
	if env := strings.Join(k.Render(false), " "); strings.Contains(env, "MV2_") {
		t.Errorf("trainer knobs render %s", env)
	}
	err := k.Apply([]string{"HOROVOD_FUSION_THRESHOLD=0", "MV2_USE_GPUDIRECT=1"})
	if err == nil || !strings.Contains(err.Error(), "MV2_USE_GPUDIRECT") || !strings.Contains(err.Error(), "only the simulator") {
		t.Errorf("MV2_USE_GPUDIRECT in the trainer: %v", err)
	}
}

// TestRegisterKnobs: -alg is registered from its row, applied after
// the environment, and leaves the knobs alone when not given.
func TestRegisterKnobs(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	apply := RegisterKnobs(fs)
	if err := fs.Parse([]string{"-alg", "rabenseifner"}); err != nil {
		t.Fatal(err)
	}
	h := horovod.Default()
	if err := apply(Knobs{Horovod: &h}, []string{"HOROVOD_FUSION_THRESHOLD=4096"}); err != nil {
		t.Fatal(err)
	}
	if h.Algorithm != netmodel.AlgRabenseifner || h.FusionThreshold != 4096 {
		t.Errorf("applied %+v", h)
	}

	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	apply = RegisterKnobs(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	h = horovod.Default()
	h.Algorithm = netmodel.AlgRing
	if err := apply(Knobs{Horovod: &h}, nil); err != nil || h.Algorithm != netmodel.AlgRing {
		t.Errorf("no -alg: err %v, Algorithm %v; want ring kept", err, h.Algorithm)
	}
	if err := fs.Set("alg", "nope"); err != nil {
		t.Fatal(err)
	}
	if err := apply(Knobs{Horovod: &h}, nil); err == nil || !strings.Contains(err.Error(), "-alg") {
		t.Errorf("-alg nope: %v", err)
	}
}

// TestTuningDocListsEveryKnob keeps docs/TUNING.md's knob table in step
// with this one.
func TestTuningDocListsEveryKnob(t *testing.T) {
	data, err := os.ReadFile("../../docs/TUNING.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, _ := strings.Cut(string(data), "## The knob table")
	for _, r := range knobTable {
		if !strings.Contains(table, "| `"+r.name+"`") {
			t.Errorf("docs/TUNING.md's knob table has no row for %s", r.name)
		}
	}
}
