package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// setupProbes is how many extra children run only as far as the first
// step notification before every measured unit and after the last.
// Set-up lasts 3 to 100 ms, so the one sample a measured child gives
// does not make a median; the driver reads setup_s as one and asks for
// several set-ups a run. The probes are spread over the run because
// probes fired in one burst all see the host in the same state.
const setupProbes = 4

// scratchRoot holds everything a run writes (checkpoints). It is inside
// the checkout, not the system's temporary directory, because the
// driver lets the benchmark write nowhere else; .gitignore names it.
const scratchRoot = ".bench_build"

// harness runs workload phases in child processes of this binary.
type harness struct {
	o   options
	exe string
	dir string
}

func newHarness(o options) (*harness, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	if err := os.MkdirAll(scratchRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratchRoot, "run-")
	if err != nil {
		return nil, err
	}
	return &harness{o: o, exe: exe, dir: dir}, nil
}

func (h *harness) close() { os.RemoveAll(h.dir) }

// child runs one phase of w in a fresh process at the workload's
// GOMAXPROCS and returns what it printed. The spawn time rides along
// so the child can charge process start to setup_s.
func (h *harness) child(w *workload, mode string, extra ...string) (*result, error) {
	args := append([]string{
		"-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(h.o.seed, 10), "-dir", h.dir,
	}, extra...)
	args = append(args, "-spawn-ns", strconv.FormatInt(time.Now().UnixNano(), 10))
	cmd := exec.Command(h.exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(w.procs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", w.name, mode, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	res := &result{}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, fmt.Errorf("%s %s: parse result: %w", w.name, mode, err)
	}
	return res, nil
}

// measure runs every phase of one workload and folds the children's
// results into one. A harness failure becomes a failed check, so the
// report still prints and the exit code is non-zero.
func (h *harness) measure(w *workload, traced bool) *result {
	res := newResult(w.name)
	if err := h.measureInto(w, traced, res); err != nil {
		res.check("harness", false, err.Error())
	}
	if !resolvable(w) {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if d.Wall {
				res.Unresolved = append(res.Unresolved, d.Name)
			}
		}
	}
	return res
}

func (h *harness) measureInto(w *workload, traced bool, res *result) error {
	var setups []float64
	probeSetup := func() error {
		for n := 0; n < setupProbes; n++ {
			r, err := h.child(w, "setup")
			if err != nil {
				return err
			}
			setups = append(setups, r.Metrics["setup_s"])
		}
		return nil
	}
	if err := probeSetup(); err != nil {
		return err
	}

	units := max(1, (h.o.seconds+nominalUnitSeconds/2)/nominalUnitSeconds)
	if !traced {
		// The repeat buys steadier end-to-end numbers; the traced run
		// reports per-layer rows and does not pay for it.
		units *= w.units
	}
	perMetric := map[string][]float64{}
	for u := 0; u < units; u++ {
		r, err := h.child(w, "run")
		if err != nil {
			return err
		}
		for k, v := range r.Metrics {
			perMetric[k] = append(perMetric[k], v)
		}
		setups = append(setups, r.Metrics["setup_s"])
		r.Metrics = nil
		res.merge(r)
		if err := probeSetup(); err != nil {
			return err
		}
	}
	for k, vs := range perMetric {
		res.set(k, median(vs))
	}
	res.set("setup_s", median(setups))
	res.samples("setup_s", len(setups))

	if traced {
		var args []string
		if h.o.traceOut != "" {
			args = append(args, "-spans")
		}
		t, err := h.child(w, "trace", args...)
		if err != nil {
			return err
		}
		res.merge(t)
	}
	return nil
}

// runSelfcheck runs the untraced set twice, the second time in reverse
// workload order, and fails if any (workload, end-to-end metric) pair
// of readings disagrees by more than the metric's bound.
func runSelfcheck(o options) int {
	ws, err := selected(o.workload)
	if err != nil {
		fatalf("%v", err)
	}
	h, err := newHarness(o)
	if err != nil {
		fatalf("%v", err)
	}
	defer h.close()

	first := map[string]*result{}
	second := map[string]*result{}
	for _, w := range ws {
		first[w.name] = h.measure(w, false)
	}
	for i := len(ws) - 1; i >= 0; i-- {
		second[ws[i].name] = h.measure(ws[i], false)
	}

	printHeader("bench selfcheck", o)
	fmt.Printf("%-16s %-18s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "diff", "bound")
	ok := true
	for _, w := range ws {
		a, b := first[w.name], second[w.name]
		if !a.correct() || !b.correct() {
			ok = false
			fmt.Printf("%-16s output checks failed\n", w.name)
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name], b.Metrics[d.Name]
			diff := 0.0
			if m := (va + vb) / 2; m != 0 {
				diff = (vb - va) / m
			}
			verdict := ""
			if math.Abs(diff) > d.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %+7.2f%% %6.0f%%%s\n", w.name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}
