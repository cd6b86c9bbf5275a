// Command dlv3-train runs *real* distributed data-parallel training
// of the scaled-down DeepLab-v3+ on the synthetic VOC-21 dataset:
// in-process ranks, real gradients, real allreduce, synchronized
// batch norm — the accuracy half of the reproduction.
//
// Usage:
//
//	dlv3-train [-world 4] [-epochs 20] [-batch 4] [-arch deeplab]
//	           [-train 64] [-eval 16] [-lr 0.05] [-strong] [-seed 1]
//	           [-alg recursive-doubling] [-elastic] [-rejoin-epoch 5]
//	           [-trace trace.json] [-prom metrics.prom]
//	           [-obs-addr 127.0.0.1:6060] [-flight flight.json]
//	           [-runs-dir results/runs] [-attr-out ledger.json]
//	           [-health] [-health-out health.jsonl]
//
// Like Horovod, it reads HOROVOD_FUSION_THRESHOLD and
// HOROVOD_HIERARCHICAL_ALLREDUCE from the environment; a non-default
// HOROVOD_CYCLE_TIME or HOROVOD_CACHE_CAPACITY, or any MV2_* variable,
// is an error (docs/TUNING.md, "The knob table").
//
// A real run has no 1-GPU baseline, so it reports no scaling
// efficiency: its run manifest carries the configuration, seed, chaos
// plan, restart count and alert log.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sync"
	"time"

	"segscale/internal/core"
	"segscale/internal/segdata"
	"segscale/pkg/summitseg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dlv3-train: ")

	cfg := summitseg.DefaultTraining()
	flag.IntVar(&cfg.World, "world", cfg.World, "data-parallel ranks")
	flag.IntVar(&cfg.Epochs, "epochs", 20, "training epochs")
	flag.IntVar(&cfg.BatchPerRank, "batch", cfg.BatchPerRank, "images per rank per step")
	flag.StringVar(&cfg.Arch, "arch", cfg.Arch, "architecture: deeplab or fcn")
	flag.IntVar(&cfg.TrainSize, "train", 64, "training-set size")
	flag.IntVar(&cfg.EvalSize, "eval", cfg.EvalSize, "eval-set size")
	flag.Float64Var(&cfg.BaseLR, "lr", cfg.BaseLR, "base learning rate")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "data/init seed")
	flag.StringVar(&cfg.Optimizer, "opt", cfg.Optimizer, "optimizer: sgd or lars")
	flag.Float64Var(&cfg.GradClip, "clip", 0, "global gradient-norm clip (0 = off)")
	flag.StringVar(&cfg.CheckpointPath, "ckpt", "", "checkpoint file written each epoch")
	flag.StringVar(&cfg.ResumeFrom, "resume", "", "checkpoint file to resume from")
	flag.IntVar(&cfg.MaxRestarts, "max-restarts", 2, "checkpoint-restart budget after rank failures (with -elastic: shrink budget)")
	flag.BoolVar(&cfg.Elastic, "elastic", false, "elastic membership: a failed rank shrinks the world in place and the survivors continue, no checkpoint restart")
	flag.IntVar(&cfg.RejoinEpoch, "rejoin-epoch", 0, "with -elastic, regrow dead ranks back into the world at this epoch boundary (0 = never)")
	chaosSeed := flag.Int64("chaos-seed", 0, "derive a recoverable chaos plan (message faults; the seed's straggler is dropped, as only summit-sim runs stragglers) from this seed (0 = off)")
	chaosSpec := flag.String("chaos-plan", "", `explicit chaos-plan spec, e.g. "seed=7;drop=0.01;crash=1@40" (overrides -chaos-seed)`)
	fp16 := flag.Bool("fp16", false, "mixed precision: binary16 gradient allreduce with fp32 master weights and dynamic loss scaling")
	lossScale := flag.Float64("loss-scale", 0, "with -fp16, initial loss scale (power of two; 0 = default 1024)")
	strong := flag.Bool("strong", false, "strong scaling: keep effective batch fixed (disables LR scaling)")
	noSync := flag.Bool("no-syncbn", false, "disable synchronized batch norm")
	traceOut := flag.String("trace", "", "write a per-rank Chrome trace (step-counter time base) to this file")
	promOut := flag.String("prom", "", "write per-rank training metrics to this file in Prometheus text format")
	promEvery := flag.Int("prom-every", 25, "with -prom, also re-export every N steps (atomic rename; 0 = final write only)")
	obsAddr := flag.String("obs-addr", "", "serve /metrics, /healthz, /readyz, /debug/flight and /debug/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
	flightOut := flag.String("flight", "", "keep an always-on flight recorder and dump its window (Chrome trace) to this file at exit, on SIGQUIT, and on each rank-failure recovery")
	runsDir := flag.String("runs-dir", "", "write a run manifest (config, seed, chaos, restarts, alerts) under this directory (empty = off)")
	attrOut := flag.String("attr-out", "", "decompose each rank's recorded step spans into the attribution ledger and write it to this file (seg-compare's input)")
	healthOn := flag.Bool("health", false, "collect the training-health plane: per-layer gradient/activation statistics with divergence sentinels (served on /debug/health when -obs-addr is set)")
	healthOut := flag.String("health-out", "", "write the per-run health ledger (deterministic JSONL, seg-compare's input) to this file; implies -health")
	healthEvery := flag.Int("health-every", 1, "with -health, collect statistics every N-th step")
	applyKnobs := core.RegisterKnobs(flag.CommandLine)
	flag.Parse()
	if err := applyKnobs(core.Knobs{Horovod: &cfg.Horovod}, os.Environ()); err != nil {
		log.Fatal(err)
	}

	if *fp16 {
		summitseg.EnableMixedPrecision(&cfg, *lossScale)
	}
	if *strong {
		cfg.ScaleLRByWorld = false
	}
	if *noSync {
		cfg.SyncBN = false
	}
	obsOn := *obsAddr != "" || *flightOut != "" || *runsDir != ""
	if *traceOut != "" || *promOut != "" || *attrOut != "" || obsOn {
		cfg.Telemetry = summitseg.NewTelemetry()
	}
	switch {
	case *chaosSpec != "":
		plan, err := summitseg.ParseChaosSpec(*chaosSpec)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Chaos = plan
	case *chaosSeed != 0:
		// The derived straggler models time, which only the simulator
		// runs; the message-fault draws do not depend on it.
		cfg.Chaos = summitseg.RandomChaosPlan(*chaosSeed, cfg.World)
		cfg.Chaos.Stragglers = nil
	}

	fmt.Printf("training %s: world=%d batch/rank=%d effective=%d syncbn=%v lr-scaling=%v\n",
		cfg.Arch, cfg.World, cfg.BatchPerRank, cfg.World*cfg.BatchPerRank, cfg.SyncBN, cfg.ScaleLRByWorld)
	if cfg.Chaos != nil {
		fmt.Printf("chaos armed: %s\n", cfg.Chaos)
	}

	// Live observability plane — strictly an observer: everything below
	// hangs off nil-safe hooks and leaves the training computation
	// untouched.
	var (
		alerts  *summitseg.AlertLog
		flight  *summitseg.FlightRecorder
		srv     *summitseg.ObsServer
		flusher *summitseg.PromFlusher
	)
	if obsOn {
		flight = cfg.Telemetry.EnableFlight(0)
		// Fed by the restart hook and the health plane.
		alerts = summitseg.NewAlertLog(cfg.Telemetry)
	}
	// Training-health plane: a pure observer of the train step. A
	// sentinel trip is routed into the run's alert log
	// and (once per run, while the window still shows the divergence)
	// dumps the flight recorder naming the offending layer/rank/step.
	var health *summitseg.HealthPlane
	if *healthOn || *healthOut != "" {
		healthDump := ""
		if *flightOut != "" {
			healthDump = *flightOut + ".health"
		}
		var dumpOnce sync.Once
		health = summitseg.NewHealthPlane(summitseg.HealthConfig{
			Every: *healthEvery,
			OnAlert: func(a summitseg.HealthAlert) {
				alerts.Report(summitseg.ObsAlert{
					Kind: "health_" + a.Kind, Lane: fmt.Sprintf("rank%d", a.Rank),
					Value: a.Value, Threshold: a.Threshold, Msg: a.Msg,
				})
				dumpOnce.Do(func() {
					log.Printf("health alert: %s", a.Msg)
					if healthDump == "" {
						return
					}
					if err := summitseg.WriteFlightTrace(flight, healthDump); err != nil {
						log.Printf("flight: %v", err)
					} else {
						fmt.Printf("flight: divergence window written to %s\n", healthDump)
					}
				})
			},
		})
		cfg.Health = health
	}
	if *promOut != "" && *promEvery > 0 {
		flusher = summitseg.NewPromFlusher(cfg.Telemetry, *promOut, *promEvery)
	}
	if flusher != nil {
		cfg.StepObs = flusher
	}
	if *obsAddr != "" {
		srv = summitseg.NewObsServer(summitseg.ObsServerOptions{
			Addr: *obsAddr, Telemetry: cfg.Telemetry, Alerts: alerts, Health: health})
		url, err := srv.Start()
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("obs: serving on %s\n", url)
	}
	if obsOn {
		flightPath := *flightOut
		cfg.OnWorld = func(w *summitseg.TransportWorld, inc int) {
			srv.TrackWorld(w, inc)
			if inc == 0 {
				return
			}
			alerts.Event("restart", "", fmt.Sprintf("incarnation %d after rank failure", inc))
			if flightPath != "" {
				// Dump the pre-crash window before the new incarnation's
				// events overwrite it.
				path := fmt.Sprintf("%s.r%d", flightPath, inc)
				if err := summitseg.WriteFlightTrace(flight, path); err != nil {
					log.Printf("flight: %v", err)
				} else {
					fmt.Printf("flight: pre-restart window written to %s\n", path)
				}
			}
		}
	}
	if *flightOut != "" {
		stop := summitseg.DumpFlightOnSignal(flight, *flightOut,
			func(err error) { log.Printf("flight: %v", err) })
		defer stop()
	}

	start := time.Now()
	res, err := summitseg.Train(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.Elastic {
		// The world column makes shrink/regrow transitions visible.
		fmt.Printf("%-6s %6s %10s %8s %8s %8s\n", "epoch", "world", "loss", "mIOU", "pixAcc", "lr")
		for _, e := range res.History {
			fmt.Printf("%-6d %6d %10.4f %7.2f%% %7.2f%% %8.4f\n",
				e.Epoch, e.World, e.Loss, 100*e.MIOU, 100*e.PixelAcc, e.LR)
		}
	} else {
		fmt.Printf("%-6s %10s %8s %8s %8s\n", "epoch", "loss", "mIOU", "pixAcc", "lr")
		for _, e := range res.History {
			fmt.Printf("%-6d %10.4f %7.2f%% %7.2f%% %8.4f\n",
				e.Epoch, e.Loss, 100*e.MIOU, 100*e.PixelAcc, e.LR)
		}
	}
	fmt.Printf("final mIOU %.2f%% (fwIOU %.2f%%, pixel accuracy %.2f%%, best %.2f%% @epoch %d) in %s\n",
		100*res.FinalMIOU, 100*res.FinalFwIOU, 100*res.FinalAcc,
		100*res.BestMIOU, res.BestEpoch, time.Since(start).Round(time.Millisecond))
	if cfg.Elastic {
		if res.Shrinks > 0 || res.Regrows > 0 {
			fmt.Printf("elastic: %d shrink(s), %d regrow(s) — no checkpoint restart\n",
				res.Shrinks, res.Regrows)
		}
	} else if res.Restarts > 0 {
		fmt.Printf("recovered from %d rank failure(s) via checkpoint restart\n", res.Restarts)
	}

	fmt.Println("\nper-class IOU (eval set):")
	for k, iou := range res.FinalPerClassIOU {
		if math.IsNaN(iou) {
			continue // class absent from the eval set
		}
		fmt.Printf("  %-14s %6.2f%%\n", segdata.ClassNames[k], 100*iou)
	}

	if *traceOut != "" {
		if err := writeTo(*traceOut, cfg.Telemetry.WriteChromeTrace); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
	if *attrOut != "" {
		// Trace-side attribution: the recorded spans (with their message
		// edges) become the happens-before DAG, and each TRAIN_STEP
		// window is decomposed into the ledger's buckets.
		l, err := summitseg.AttributeTelemetry(cfg.Telemetry)
		if err != nil {
			log.Fatal(err)
		}
		if err := writeTo(*attrOut, l.WriteLedger); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("attribution ledger written to %s\n", *attrOut)
	}
	if health != nil {
		alerts := health.Alerts()
		trips := len(alerts) + health.DroppedAlerts()
		fmt.Printf("health: %d ledger rows, %d sentinel trip(s)\n", len(health.Rows()), trips)
		if len(alerts) > 0 {
			a := alerts[0]
			fmt.Printf("health: first trip %s at layer %s rank %d step %d inc %d\n",
				a.Kind, a.Layer, a.Rank, a.Step, a.Inc)
		}
		if *healthOut != "" {
			if err := summitseg.WriteHealthLedger(health, *healthOut); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("health ledger written to %s\n", *healthOut)
		}
	}
	if *promOut != "" {
		// Atomic final flush (and surface any periodic-flush error).
		err := flusher.Flush()
		if flusher == nil {
			err = summitseg.FlushPrometheus(cfg.Telemetry, *promOut)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *promOut)
	}
	if *flightOut != "" {
		if err := summitseg.WriteFlightTrace(flight, *flightOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("flight window written to %s\n", *flightOut)
	}
	if *runsDir != "" {
		chaos := ""
		if cfg.Chaos != nil {
			chaos = cfg.Chaos.String()
		}
		m := summitseg.RunManifest{
			Tool: "dlv3-train", GitRev: summitseg.GitRev(), Seed: cfg.Seed,
			Config: map[string]any{
				"world": cfg.World, "epochs": cfg.Epochs, "batch_per_rank": cfg.BatchPerRank,
				"arch": cfg.Arch, "optimizer": cfg.Optimizer, "syncbn": cfg.SyncBN,
				"base_lr": cfg.BaseLR, "knobs": core.Knobs{Horovod: &cfg.Horovod}.Render(true),
			},
			ChaosSpec: chaos, Restarts: res.Restarts, Alerts: alerts.Alerts(),
		}
		path, err := summitseg.WriteRunManifest(*runsDir, m)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("run manifest written to %s\n", path)
	}
}

// writeTo creates path and streams one exporter into it.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
