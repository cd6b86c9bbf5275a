package core

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"segscale/internal/horovod"
	"segscale/internal/mpiprofile"
	"segscale/internal/netmodel"
)

// Knobs is what the knob table binds: a Horovod knob set (non-nil)
// and an MPI profile. The trainer has none (MPI nil), so an MV2_*
// variable is an error there and Render omits the MV2_* rows.
type Knobs struct {
	Horovod *horovod.Config
	MPI     *mpiprofile.Profile
}

// knob is one row of the table: a variable (NAME) or a flag (-name),
// bound to one field of Knobs. set parses a value into the field and
// leaves it alone on error; get renders the field.
type knob struct {
	name  string
	mpi   bool   // binds Knobs.MPI: only the simulator reads it
	usage string // a flag's usage text
	get   func(Knobs) string
	set   func(Knobs, string) error
}

// knobTable names every HOROVOD_*/MV2_* knob and -alg once, in the
// order Render writes them (sorted, as a job script lists its
// exports). docs/TUNING.md, "The knob table", says who reads each row.
var knobTable = []knob{
	{name: "HOROVOD_CACHE_CAPACITY", // any positive capacity turns the response cache on
		get: func(k Knobs) string { return pick(k.Horovod.ResponseCache, "1024", "0") },
		set: func(k Knobs, v string) error {
			n, err := whole(v, 0)
			if err == nil {
				k.Horovod.ResponseCache = n > 0
			}
			return err
		}},
	{name: "HOROVOD_CYCLE_TIME", // in milliseconds, as in Horovod
		get: func(k Knobs) string {
			return strconv.FormatFloat(float64(k.Horovod.CycleTime)/float64(time.Millisecond), 'g', -1, 64)
		},
		set: func(k Knobs, v string) error {
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil || !(ms > 0 && ms*float64(time.Millisecond) < math.MaxInt64) {
				return errors.New("want a positive number of milliseconds")
			}
			k.Horovod.CycleTime = time.Duration(ms * float64(time.Millisecond))
			return nil
		}},
	intKnob("HOROVOD_FUSION_THRESHOLD", false, 0, func(k Knobs) *int { return &k.Horovod.FusionThreshold }),
	switchKnob("HOROVOD_HIERARCHICAL_ALLREDUCE", false, func(k Knobs) *bool { return &k.Horovod.Hierarchical }),
	intKnob("MV2_CUDA_BLOCK_SIZE", true, 1, func(k Knobs) *int { return &k.MPI.CUDABlockSize }),
	intKnob("MV2_GPUDIRECT_LIMIT", true, 0, func(k Knobs) *int { return &k.MPI.GPUDirectLimit }),
	intKnob("MV2_IBA_EAGER_LIMIT", true, 0, func(k Knobs) *int { return &k.MPI.EagerLimit }),
	{name: "MV2_USE_CUDA", mpi: true, // a constant: every modelled library moves GPU buffers
		get: func(Knobs) string { return "1" },
		set: func(_ Knobs, v string) error {
			if v != "1" {
				return errors.New("want 1: every modelled MPI library is CUDA-aware")
			}
			return nil
		}},
	switchKnob("MV2_USE_GPUDIRECT", true, func(k Knobs) *bool { return &k.MPI.GPUDirect }),
	{name: "-alg",
		usage: "allreduce algorithm: auto, ring, recursive-doubling, rabenseifner, hier-leader, hier-torus (simulator only) or hier-2level (default: the profile's pick; the trainer runs auto as the ring)",
		get:   func(k Knobs) string { return k.Horovod.Algorithm.String() },
		set: func(k Knobs, v string) error {
			a, err := netmodel.AlgorithmByName(v)
			if err == nil {
				k.Horovod.Algorithm = a
			}
			return err
		}},
}

// intKnob binds a whole-number variable of at least least to an int.
func intKnob(name string, mpi bool, least int, field func(Knobs) *int) knob {
	return knob{name: name, mpi: mpi,
		get: func(k Knobs) string { return strconv.Itoa(*field(k)) },
		set: func(k Knobs, v string) error {
			n, err := whole(v, least)
			if err == nil {
				*field(k) = n
			}
			return err
		}}
}

// switchKnob binds a 0/1 variable to a bool.
func switchKnob(name string, mpi bool, field func(Knobs) *bool) knob {
	return knob{name: name, mpi: mpi,
		get: func(k Knobs) string { return pick(*field(k), "1", "0") },
		set: func(k Knobs, v string) error {
			if v != "0" && v != "1" {
				return errors.New("want 0 or 1")
			}
			*field(k) = v == "1"
			return nil
		}}
}

func whole(v string, least int) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil || n < least {
		return 0, fmt.Errorf("want a whole number ≥ %d", least)
	}
	return n, nil
}

func pick(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}

// Apply sets k from name=value assignments in order: variables in
// os.Environ's form, and -name=value for a flag row. Names outside the
// table are ignored, as Horovod and MPI ignore them; a bad value is an
// error naming its knob.
func (k Knobs) Apply(assignments []string) error {
	for _, a := range assignments {
		name, v, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("malformed assignment %q", a)
		}
		for _, r := range knobTable {
			if r.name != name {
				continue
			}
			if r.mpi && k.MPI == nil {
				return fmt.Errorf("%s is set, but only the simulator has an MPI profile", name)
			}
			if err := r.set(k, v); err != nil {
				return fmt.Errorf("%s=%q: %v", name, v, err)
			}
		}
	}
	return nil
}

// Render writes k as the assignments Apply reads, in table order: the
// variables only (a job script's exports), or withFlags the flag rows
// too (a run manifest's record of how the run was configured).
func (k Knobs) Render(withFlags bool) []string {
	var out []string
	for _, r := range knobTable {
		if (withFlags || r.name[0] != '-') && (k.MPI != nil || !r.mpi) {
			out = append(out, r.name+"="+r.get(k))
		}
	}
	return out
}

// RegisterKnobs registers the table's flag rows on fs. Its result,
// called after fs.Parse, applies environ and then the flags given
// (which win) to k, so a binary can pick k after parsing (summit-sim's
// -mpi and -tuned pick it).
func RegisterKnobs(fs *flag.FlagSet) func(k Knobs, environ []string) error {
	var given []string
	for _, r := range knobTable {
		if r.name[0] == '-' {
			fs.Func(r.name[1:], r.usage, func(v string) error {
				given = append(given, r.name+"="+v)
				return nil
			})
		}
	}
	return func(k Knobs, environ []string) error {
		return k.Apply(append(environ[:len(environ):len(environ)], given...))
	}
}
