// Package jobscript renders LSF batch scripts with jsrun launch lines
// — how jobs actually run on Summit. The tuner's output (an MPI
// profile + Horovod knobs) becomes a ready-to-bsub script, closing
// the loop from "simulation found these knobs" to "this is the job
// you would submit".
package jobscript

import (
	"fmt"
	"strings"
	"time"

	"segscale/internal/core"
	"segscale/internal/horovod"
	"segscale/internal/mpiprofile"
	"segscale/internal/topology"
)

// Job describes one Summit batch job.
type Job struct {
	// Name is the LSF job name (#BSUB -J).
	Name string
	// Project is the allocation code (#BSUB -P).
	Project string
	// Nodes requested; each contributes GPUsPerNode resource sets.
	Nodes int
	// GPUsPerNode ≤ 6.
	GPUsPerNode int
	// WallTime is the LSF limit.
	WallTime time.Duration
	// Env holds exported variables (HOROVOD_*, MV2_*).
	Env []string
	// Modules are `module load` lines (e.g. ibm-wml-ce, mvapich2-gdr).
	Modules []string
	// Command is the per-rank program (the python training script).
	Command string
}

// FromConfig builds a job for a tuned configuration at a GPU count,
// mirroring the paper's runs (1 rank per GPU, 7 cores per rank on the
// POWER9s).
func FromConfig(name string, gpus int, mpi *mpiprofile.Profile, hvd horovod.Config) Job {
	mach := topology.ForGPUs(gpus)
	modules := []string{"cuda/10.1.168", "gcc/7.4.0"}
	if mpi.Name == "mv2gdr" {
		modules = append(modules, "mvapich2-gdr/2.3.3")
	} else {
		modules = append(modules, "spectrum-mpi/10.3.0.1")
	}
	return Job{
		Name:        name,
		Project:     "GEN123",
		Nodes:       mach.Nodes,
		GPUsPerNode: mach.GPUsPer,
		WallTime:    2 * time.Hour,
		Env:         core.Knobs{Horovod: &hvd, MPI: mpi}.Render(false),
		Modules:     modules,
		Command:     "python deeplab_train.py --batch-size 4 --crop 513",
	}
}

// Validate checks the job is submittable.
func (j Job) Validate() error {
	if j.Name == "" || j.Command == "" {
		return fmt.Errorf("jobscript: missing name or command")
	}
	if j.Nodes <= 0 || j.GPUsPerNode <= 0 || j.GPUsPerNode > topology.GPUsPerNode {
		return fmt.Errorf("jobscript: bad geometry %d×%d", j.Nodes, j.GPUsPerNode)
	}
	if j.WallTime <= 0 {
		return fmt.Errorf("jobscript: non-positive wall time")
	}
	for _, e := range j.Env {
		if !strings.Contains(e, "=") {
			return fmt.Errorf("jobscript: malformed env entry %q", e)
		}
	}
	return nil
}

// Ranks is the total MPI rank count (one per GPU).
func (j Job) Ranks() int { return j.Nodes * j.GPUsPerNode }

// LSF renders the batch script.
func (j Job) LSF() (string, error) {
	if err := j.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	w := int(j.WallTime.Minutes())
	fmt.Fprintf(&b, "#!/bin/bash\n")
	fmt.Fprintf(&b, "#BSUB -J %s\n", j.Name)
	fmt.Fprintf(&b, "#BSUB -P %s\n", j.Project)
	fmt.Fprintf(&b, "#BSUB -nnodes %d\n", j.Nodes)
	fmt.Fprintf(&b, "#BSUB -W %d:%02d\n", w/60, w%60)
	fmt.Fprintf(&b, "#BSUB -alloc_flags gpumps\n\n")
	for _, m := range j.Modules {
		fmt.Fprintf(&b, "module load %s\n", m)
	}
	b.WriteString("\n")
	for _, e := range j.Env {
		fmt.Fprintf(&b, "export %s\n", e)
	}
	b.WriteString("\n")
	// jsrun: one resource set per GPU, 7 cores each (42 usable cores
	// per Summit node / 6 GPUs), EDR-aware binding.
	fmt.Fprintf(&b, "jsrun -n %d -a 1 -c 7 -g 1 -r %d --bind rs %s\n",
		j.Ranks(), j.GPUsPerNode, j.Command)
	return b.String(), nil
}
