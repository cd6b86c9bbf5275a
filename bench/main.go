// Command bench is the repository's end-to-end and per-layer
// benchmark (BENCHMARK.json at the repo root declares it). It runs
// real multi-rank training and the simulator sweep through the same
// public entry points the CLIs use, each workload in a fresh child
// process of this binary so set-up time, GC state and peak RSS are
// honest, and prints every metric by name with its unit.
//
//	go run ./bench -seed 1                  # every workload, tracing off
//	go run ./bench -seed 1 -trace 1         # plus the traced, per-layer run
//	go run ./bench -workload sim_sweep      # one workload
//	go run ./bench -list                    # enumerate workloads
//	go run ./bench -selfcheck               # two sets of runs vs the bounds
//	go run ./bench -trace 1 -trace-out t.json   # spans as a Chrome trace
//
// The last line of standard output is one JSON object: for a single
// workload {"correct","attempted","failed","metrics"} with the
// end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
// The exit code is non-zero when any output check fails. See README.md
// for what every metric means and where it is measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
	// Child-only.
	child   string
	spawnNS int64
	dir     string
	spans   bool
}

func main() {
	var o options
	list := flag.Bool("list", false, "list the workloads and exit")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced set twice in alternating order and compare against the bounds")
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: training data, model init, chaos plan, simulator")
	flag.IntVar(&o.seconds, "seconds", nominalUnitSeconds, "measuring time per workload; units of ~10 s of fixed work are repeated to fill it")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced run that yields the per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced run's spans to this file as a Chrome trace (needs -trace 1)")
	flag.StringVar(&o.child, "child", "", "internal: run one phase of one workload in this process")
	flag.Int64Var(&o.spawnNS, "spawn-ns", 0, "internal: when the parent started this process, Unix ns")
	flag.StringVar(&o.dir, "dir", "", "internal: scratch directory")
	flag.BoolVar(&o.spans, "spans", false, "internal: include spans in the child's result")
	flag.Parse()

	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		fatalf("-trace takes 0 or 1")
	}
	if o.seconds < 1 {
		fatalf("-seconds must be at least 1")
	}
	if o.traceOut != "" && o.trace != 1 {
		fatalf("-trace-out needs -trace 1")
	}
	switch {
	case o.child != "":
		os.Exit(runChild(o))
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-16s %s\n", w.name, w.why)
		}
	case *selfcheck:
		os.Exit(runSelfcheck(o))
	default:
		os.Exit(runParent(o))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// selected returns the workloads -workload names.
func selected(name string) ([]*workload, error) {
	if name == "" {
		return workloads, nil
	}
	w := workloadByName(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (see -list)", name)
	}
	return []*workload{w}, nil
}

// runParent measures the selected workloads and prints the report.
func runParent(o options) int {
	ws, err := selected(o.workload)
	if err != nil {
		fatalf("%v", err)
	}
	h, err := newHarness(o)
	if err != nil {
		fatalf("%v", err)
	}
	defer h.close()

	printHeader("bench", o)

	var results []*result
	for _, w := range ws {
		start := time.Now()
		res := h.measure(w, o.trace == 1)
		res.WallS = time.Since(start).Seconds()
		results = append(results, res)
		printResult(res, o.trace == 1)
	}
	if o.traceOut != "" {
		if err := writeChromeTrace(o.traceOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "bench: trace-out: %v\n", err)
			return 1
		}
	}

	ok := true
	for _, r := range results {
		ok = ok && r.correct()
	}
	if err := printFinalJSON(results, o.trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// printFinalJSON writes the machine-readable last line: the contract
// object for one workload, or an object of them keyed by workload.
func printFinalJSON(results []*result, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	var v any
	if len(results) == 1 {
		v = results[0].contract(defs)
	} else {
		all := struct {
			Correct   bool                      `json:"correct"`
			Attempted int                       `json:"attempted"`
			Failed    int                       `json:"failed"`
			Workloads map[string]contractObject `json:"workloads"`
		}{Correct: true, Workloads: map[string]contractObject{}}
		for _, r := range results {
			c := r.contract(defs)
			all.Correct = all.Correct && c.Correct
			all.Attempted += c.Attempted
			all.Failed += c.Failed
			all.Workloads[r.Workload] = c
		}
		v = all
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// resolvable reports whether this host can time a workload: ranks that
// share a core measure the scheduler, not the system.
func resolvable(w *workload) bool { return runtime.NumCPU() >= w.procs }
