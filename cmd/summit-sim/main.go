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
//	           [-obs-addr 127.0.0.1:6060] [-obs-linger 30s] [-anchor 6.7]
//	           [-attr-out ledger.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"segscale/internal/asciichart"
	"segscale/pkg/summitseg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("summit-sim: ")

	modelName := flag.String("model", "dlv3plus", "model profile: dlv3plus or resnet50")
	mpiName := flag.String("mpi", "mv2gdr", "MPI profile: spectrum or mv2gdr")
	tuned := flag.Bool("tuned", false, "use the tuned Horovod knobs instead of defaults")
	algName := flag.String("alg", "", `allreduce algorithm: auto, ring, recursive-doubling, rabenseifner, hier-leader, hier-torus, hier-2level (empty = the profile's pick)`)
	gpuList := flag.String("gpus", "", "comma-separated GPU counts (default: the paper's 1,6,...,132)")
	seed := flag.Int64("seed", 1, "simulation seed")
	timelineOut := flag.String("timeline", "", "write a Chrome trace of one step to this file (largest scale)")
	promOut := flag.String("prom", "", "write simulator metrics (all scales) to this file in Prometheus text format")
	fp16 := flag.Bool("fp16", false, "enable fp16 gradient compression")
	cyclic := flag.Bool("cyclic", false, "cyclic (round-robin) rank placement instead of packed")
	withIO := flag.Bool("io", false, "model the input pipeline (GPFS + decode + prefetch)")
	chaosSeed := flag.Int64("chaos-seed", 0, "derive a chaos plan (message faults + straggler) from this seed (0 = off)")
	chaosSpec := flag.String("chaos-plan", "", `explicit chaos-plan spec, e.g. "seed=7;drop=0.01;slow=2*1.5" (overrides -chaos-seed)`)
	plot := flag.Bool("plot", false, "render a throughput bar chart after the table")
	jsonOut := flag.String("json", "", "also write results as JSON to this file")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /healthz, /readyz and /debug/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
	obsLinger := flag.Duration("obs-linger", 0, "with -obs-addr, keep serving this long after the table completes (for scraping a finished run)")
	flightOut := flag.String("flight", "", "keep a flight recorder over the simulated steps and dump its window (Chrome trace) to this file at exit")
	slo := flag.Float64("slo", summitseg.DefaultSLO, "scaling-efficiency objective for the online monitor")
	anchor := flag.Float64("anchor", 6.7, "single-GPU img/s anchor for the efficiency monitor (the paper's DLv3+ V100 calibration; 0 = self-calibrate)")
	runsDir := flag.String("runs-dir", "", "write a run manifest (config, seed, chaos, final efficiency, alerts) under this directory (empty = off)")
	attrOut := flag.String("attr-out", "", "write the largest scale's per-(step,rank) attribution ledger to this file (seg-compare's input)")
	flag.Parse()

	prof, err := summitseg.ModelByName(*modelName)
	if err != nil {
		log.Fatal(err)
	}
	mpi, err := summitseg.MPIByName(*mpiName)
	if err != nil {
		log.Fatal(err)
	}
	hvd := summitseg.DefaultHorovod()
	if *tuned {
		hvd = summitseg.TunedHorovod()
	}
	hvd.FP16Compression = *fp16
	if *algName != "" {
		alg, err := summitseg.AlgorithmByName(*algName)
		if err != nil {
			log.Fatal(err)
		}
		hvd.Algorithm = alg
	}
	var io *summitseg.IOConfig
	if *withIO {
		c := summitseg.DefaultIO()
		io = &c
	}

	scales := summitseg.PaperScales()
	if *gpuList != "" {
		scales = scales[:0]
		for _, part := range strings.Split(*gpuList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				log.Fatalf("bad GPU count %q", part)
			}
			scales = append(scales, n)
		}
	}

	var fixedPlan *summitseg.ChaosPlan
	if *chaosSpec != "" {
		fixedPlan, err = summitseg.ParseChaosSpec(*chaosSpec)
		if err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("model=%s mpi=%s tuned=%v alg=%s\n", prof.Name, mpi.Name, *tuned, hvd.Algorithm)
	if fixedPlan != nil {
		fmt.Printf("chaos armed: %s\n", fixedPlan)
	} else if *chaosSeed != 0 {
		fmt.Printf("chaos armed: seed %d (plan derived per scale)\n", *chaosSeed)
	}
	fmt.Printf("%-6s %12s %10s %12s %12s\n", "GPUs", "img/s", "eff", "step", "exposed")

	obsOn := *obsAddr != "" || *flightOut != "" || *runsDir != ""
	var col *summitseg.Telemetry
	if *promOut != "" || obsOn {
		col = summitseg.NewTelemetry()
	}

	// Live observability plane: the monitor consumes every post-warmup
	// simulated step (virtual durations), so efficiency and straggler
	// gauges are live on /metrics while the table is still printing.
	var (
		mon    *summitseg.EffMonitor
		flight *summitseg.FlightRecorder
		srv    *summitseg.ObsServer
	)
	if obsOn {
		flight = col.EnableFlight(0)
		mon = summitseg.NewEffMonitor(col, summitseg.MonitorConfig{
			AnchorImgPerSec: *anchor, SLO: *slo})
	}
	// Attribution rides the largest scale (like -timeline): one ledger
	// per sweep, served live on /debug/attribution and summarised as
	// train_step_attribution_* gauges on /metrics.
	var attrRec *summitseg.AttributionRecorder
	publishAttr := func() {}
	if *attrOut != "" || obsOn {
		attrRec = summitseg.NewAttributionRecorder("perfsim", scales[len(scales)-1])
		publishAttr = summitseg.AttributionPublisher(col, attrRec)
	}
	if *obsAddr != "" {
		srv = summitseg.NewObsServer(summitseg.ObsServerOptions{
			Addr: *obsAddr, Telemetry: col, Monitor: mon, Attribution: attrRec})
		url, err := srv.Start()
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		srv.SetReady(true) // no transport world to track in a simulation
		fmt.Printf("obs: serving on %s\n", url)
	}

	var base *summitseg.SimResult
	var bars []asciichart.Bar
	var all []*summitseg.SimResult
	for i, g := range scales {
		opts := summitseg.SimOptions{GPUs: g, Model: prof, MPI: mpi, Horovod: hvd, Seed: *seed,
			CyclicPlacement: *cyclic, IO: io, Telemetry: col}
		if mon != nil {
			opts.StepObs = mon
		}
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
			log.Fatal(err)
		}
		if opts.Attribution != nil {
			publishAttr()
		}
		if base == nil {
			base = res
		}
		fmt.Printf("%-6d %12.1f %9.1f%% %12s %12s\n",
			g, res.ImgPerSec, 100*res.EfficiencyVs(base),
			summitseg.FormatDuration(res.AvgStepSec), summitseg.FormatDuration(res.ExposedSec))
		bars = append(bars, asciichart.Bar{Label: fmt.Sprintf("%d GPUs", g), Value: res.ImgPerSec})
		all = append(all, res)
		if col != nil && *promOut != "" {
			// Crash-safe incremental export: each scale atomically
			// replaces the file, so a killed sweep keeps every completed
			// scale's metrics.
			if err := summitseg.FlushPrometheus(col, *promOut); err != nil {
				log.Fatal(err)
			}
		}
		if opts.Timeline != nil {
			f, err := os.Create(*timelineOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := opts.Timeline.WriteChromeTrace(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("timeline for %d GPUs written to %s\n", g, *timelineOut)
		}
	}
	if *plot {
		fmt.Println()
		fmt.Print(asciichart.HBar(bars, 48, "%.1f img/s"))
	}
	if col != nil && *promOut != "" {
		if err := summitseg.FlushPrometheus(col, *promOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *promOut)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(all, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("results written to %s\n", *jsonOut)
	}
	if *attrOut != "" {
		if err := summitseg.WriteAttribution(attrRec, *attrOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("attribution ledger written to %s\n", *attrOut)
	}
	if *flightOut != "" {
		if err := summitseg.WriteFlightTrace(flight, *flightOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("flight window written to %s\n", *flightOut)
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
			},
			ChaosSpec: chaos, SLO: mon.SLO(), AnchorImgPerSec: mon.Anchor(),
			FinalEfficiency: mon.LastEfficiency(), Alerts: mon.Alerts(),
		}
		path, err := summitseg.WriteRunManifest(*runsDir, m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run manifest written to %s\n", path)
	}
	// Completion marker the obs smoke test waits on before scraping.
	fmt.Println("summit-sim: done")
	if srv != nil && *obsLinger > 0 {
		fmt.Printf("obs: lingering %s for scrapes\n", *obsLinger)
		time.Sleep(*obsLinger)
	}
}
