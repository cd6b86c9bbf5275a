// Command summit-sim simulates distributed training of a model on a
// Summit-like machine and prints the scaling table (throughput and
// efficiency per GPU count) for a chosen MPI library and Horovod
// configuration.
//
// Usage:
//
//	summit-sim [-model dlv3plus] [-mpi mv2gdr] [-tuned] [-alg hier-2level]
//	           [-gpus 1,6,12,...]
//	           [-seed 1] [-timeline trace.json] [-prom metrics.prom]
//	           [-json results.json] [-runs-dir results/runs]
//	           [-attr-out ledger.json]
//
// The HOROVOD_* and MV2_* variables of the environment (docs/TUNING.md,
// "The knob table") apply on top of -mpi and -tuned, and -alg on top of
// them, so a job script's exports configure a sweep.
//
// Every efficiency it prints or writes is metrics.ScalingEfficiency
// against one baseline: a 1-GPU run of the same model, MPI, Horovod,
// input-pipeline, placement and seed options, simulated without chaos.
// A sweep ends in milliseconds, so it serves no live plane: its
// record is the printed table and the files the flags above name.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"segscale/internal/asciichart"
	"segscale/internal/core"
	"segscale/pkg/summitseg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("summit-sim: ")
	if err := run(os.Args[1:], os.Environ(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole tool behind a testable seam: args are the
// command-line arguments (without the program name), environ the
// environment (os.Environ's form), output goes to stdout.
func run(args, environ []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("summit-sim", flag.ContinueOnError)
	modelName := fs.String("model", "dlv3plus", "model profile: dlv3plus or resnet50")
	mpiName := fs.String("mpi", "mv2gdr", "MPI profile: spectrum or mv2gdr")
	tuned := fs.Bool("tuned", false, "use the tuned Horovod knobs instead of defaults")
	gpuList := fs.String("gpus", "", "comma-separated GPU counts (default: the paper's 1,6,...,132)")
	seed := fs.Int64("seed", 1, "simulation seed")
	timelineOut := fs.String("timeline", "", "write a Chrome trace of one step to this file (largest scale)")
	promOut := fs.String("prom", "", "write simulator metrics (all scales) to this file in Prometheus text format")
	fp16 := fs.Bool("fp16", false, "enable fp16 gradient compression")
	cyclic := fs.Bool("cyclic", false, "cyclic (round-robin) rank placement instead of packed")
	withIO := fs.Bool("io", false, "model the input pipeline (GPFS + decode + prefetch)")
	chaosSeed := fs.Int64("chaos-seed", 0, "derive a chaos plan (message faults + straggler) from this seed (0 = off)")
	chaosSpec := fs.String("chaos-plan", "", `explicit chaos-plan spec, e.g. "seed=7;drop=0.01;slow=2*1.5" (overrides -chaos-seed)`)
	plot := fs.Bool("plot", false, "render a throughput bar chart after the table")
	jsonOut := fs.String("json", "", "also write results as JSON to this file")
	runsDir := fs.String("runs-dir", "", "write a run manifest (config, seed, chaos, baseline, final efficiency) under this directory (empty = off)")
	attrOut := fs.String("attr-out", "", "write the largest scale's per-(step,rank) attribution ledger to this file (seg-compare's input)")
	applyKnobs := core.RegisterKnobs(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	prof, err := summitseg.ModelByName(*modelName)
	if err != nil {
		return err
	}
	mpi, err := summitseg.MPIByName(*mpiName)
	if err != nil {
		return err
	}
	hvd := summitseg.DefaultHorovod()
	if *tuned {
		hvd = summitseg.TunedHorovod()
	}
	hvd.FP16Compression = *fp16
	if err := applyKnobs(core.Knobs{Horovod: &hvd, MPI: mpi}, environ); err != nil {
		return err
	}
	var ioCfg *summitseg.IOConfig
	if *withIO {
		c := summitseg.DefaultIO()
		ioCfg = &c
	}

	scales := summitseg.PaperScales()
	if *gpuList != "" {
		scales = scales[:0]
		for _, part := range strings.Split(*gpuList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad GPU count %q", part)
			}
			scales = append(scales, n)
		}
	}

	var fixedPlan *summitseg.ChaosPlan
	if *chaosSpec != "" {
		fixedPlan, err = summitseg.ParseChaosSpec(*chaosSpec)
		if err != nil {
			return err
		}
	}

	// The baseline every efficiency is measured against: the same
	// options at 1 GPU, with no chaos and no observers.
	base, err := summitseg.Simulate(summitseg.SimOptions{GPUs: 1, Model: prof, MPI: mpi, Horovod: hvd,
		Seed: *seed, CyclicPlacement: *cyclic, IO: ioCfg})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "model=%s mpi=%s tuned=%v alg=%s\n", prof.Name, mpi.Name, *tuned, hvd.ResolveAlgorithm())
	if fixedPlan != nil {
		fmt.Fprintf(stdout, "chaos armed: %s\n", fixedPlan)
	} else if *chaosSeed != 0 {
		fmt.Fprintf(stdout, "chaos armed: seed %d (plan derived per scale)\n", *chaosSeed)
	}
	fmt.Fprintf(stdout, "%-6s %12s %10s %12s %12s\n", "GPUs", "img/s", "eff", "step", "exposed")

	var col *summitseg.Telemetry
	if *promOut != "" {
		col = summitseg.NewTelemetry()
	}
	// Attribution rides the largest scale (like -timeline): one ledger
	// per sweep.
	var attrRec *summitseg.AttributionRecorder
	if *attrOut != "" {
		attrRec = summitseg.NewAttributionRecorder("perfsim", scales[len(scales)-1])
	}

	var bars []asciichart.Bar
	var all []*summitseg.SimResult
	var lastEff float64
	for i, g := range scales {
		opts := summitseg.SimOptions{GPUs: g, Model: prof, MPI: mpi, Horovod: hvd, Seed: *seed,
			CyclicPlacement: *cyclic, IO: ioCfg, Telemetry: col}
		switch {
		case fixedPlan != nil:
			opts.Chaos = fixedPlan
		case *chaosSeed != 0:
			opts.Chaos = summitseg.RandomChaosPlan(*chaosSeed, g)
		}
		if *timelineOut != "" && i == len(scales)-1 {
			opts.Timeline = &summitseg.Timeline{}
		}
		if attrRec != nil && i == len(scales)-1 {
			opts.Attribution = attrRec
		}
		res, err := summitseg.Simulate(opts)
		if err != nil {
			return err
		}
		lastEff = res.EfficiencyVs(base)
		fmt.Fprintf(stdout, "%-6d %12.1f %9.1f%% %12s %12s\n",
			g, res.ImgPerSec, 100*lastEff,
			summitseg.FormatDuration(res.AvgStepSec), summitseg.FormatDuration(res.ExposedSec))
		bars = append(bars, asciichart.Bar{Label: fmt.Sprintf("%d GPUs", g), Value: res.ImgPerSec})
		all = append(all, res)
		if col != nil {
			// Crash-safe incremental export: each scale atomically
			// replaces the file, so a killed sweep keeps every completed
			// scale's metrics.
			if err := summitseg.FlushPrometheus(col, *promOut); err != nil {
				return err
			}
		}
		if opts.Timeline != nil {
			f, err := os.Create(*timelineOut)
			if err != nil {
				return err
			}
			if err := opts.Timeline.WriteChromeTrace(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "timeline for %d GPUs written to %s\n", g, *timelineOut)
		}
	}
	if *plot {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, asciichart.HBar(bars, 48, "%.1f img/s"))
	}
	if col != nil {
		if err := summitseg.FlushPrometheus(col, *promOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "metrics written to %s\n", *promOut)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "results written to %s\n", *jsonOut)
	}
	if *attrOut != "" {
		if err := summitseg.WriteAttribution(attrRec, *attrOut); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "attribution ledger written to %s\n", *attrOut)
	}
	if *runsDir != "" {
		chaos := ""
		switch {
		case fixedPlan != nil:
			chaos = fixedPlan.String()
		case *chaosSeed != 0:
			chaos = fmt.Sprintf("seed=%d (derived per scale)", *chaosSeed)
		}
		m := summitseg.RunManifest{
			Tool: "summit-sim", GitRev: summitseg.GitRev(), Seed: *seed,
			Config: map[string]any{
				"model": prof.Name, "mpi": mpi.Name, "tuned": *tuned, "fp16": *fp16,
				"cyclic": *cyclic, "io": *withIO, "gpus": scales,
				"knobs": core.Knobs{Horovod: &hvd, MPI: mpi}.Render(true),
			},
			ChaosSpec: chaos, AnchorImgPerSec: base.ImgPerSec, FinalEfficiency: lastEff,
		}
		path, err := summitseg.WriteRunManifest(*runsDir, m)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "run manifest written to %s\n", path)
	}
	return nil
}
