package main

import (
	"fmt"
	"math"
	"sort"
)

// check is one output check; a failed check fails the workload.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// result is what one workload (or one child phase of it) reports.
type result struct {
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []check            `json:"checks,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Samples holds the sample count behind a timing, by metric name.
	Samples map[string]int `json:"samples,omitempty"`
	// Unresolved names wall-clock metrics this host cannot measure
	// (fewer cores than the workload's ranks).
	Unresolved []string `json:"unresolved,omitempty"`
	WallS      float64  `json:"wall_s"`
	Spans      []span   `json:"spans,omitempty"`
}

func newResult(workload string) *result {
	return &result{Workload: workload, Metrics: map[string]float64{}, Samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }
func (r *result) samples(name string, n int) { r.Samples[name] = n }
func (r *result) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
}

// correct reports whether every check passed and every value is a
// finite number.
func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	for _, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

func (r *result) unresolvedSet() map[string]bool {
	set := make(map[string]bool, len(r.Unresolved))
	for _, n := range r.Unresolved {
		set[n] = true
	}
	return set
}

// merge folds a child phase's result into r: metrics overwrite, counts
// and checks add.
func (r *result) merge(o *result) {
	for k, v := range o.Metrics {
		r.Metrics[k] = v
	}
	for k, v := range o.Samples {
		r.Samples[k] = v
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Checks = append(r.Checks, o.Checks...)
	r.Spans = append(r.Spans, o.Spans...)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractObject is the last-line JSON shape the benchmark driver reads.
type contractObject struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// contract renders r with exactly the metrics defs declares. A run
// that failed a check counts every operation as failed.
func (r *result) contract(defs []metricDef) contractObject {
	c := contractObject{Correct: r.correct(), Attempted: max(r.Attempted, 1), Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(defs))}
	if !c.Correct {
		c.Failed = c.Attempted
	}
	unresolved := r.unresolvedSet()
	for _, d := range defs {
		if unresolved[d.Name] {
			continue
		}
		v := r.Metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN; correct is already false
		}
		c.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return c
}

// printResult writes the human-readable block for one workload.
func printResult(r *result, traced bool) {
	status := "ok"
	if !r.correct() {
		status = "FAILED"
	}
	fmt.Printf("\n== %s: %s  (attempted %d, failed %d, wall %.1f s)\n", r.Workload, status, r.Attempted, r.Failed, r.WallS)
	unresolved := r.unresolvedSet()
	row := func(d metricDef) {
		val := fmt.Sprintf("%14.6g", r.Metrics[d.Name])
		if unresolved[d.Name] {
			val = fmt.Sprintf("%14s", "unresolved")
		}
		extra := ""
		if d.Bound > 0 {
			extra = fmt.Sprintf("  bound %2.0f%%", 100*d.Bound)
		}
		if n, ok := r.Samples[d.Name]; ok {
			extra += fmt.Sprintf("  n=%d", n)
		}
		fmt.Printf("  %-34s %s %-8s %s better%s\n", d.Name, val, d.Unit, d.Better, extra)
	}
	for _, d := range endToEnd {
		row(d)
	}
	if traced {
		fmt.Println("  -- per layer (traced run)")
		for _, d := range perLayer {
			row(d)
		}
	}
	checks := append([]check(nil), r.Checks...)
	sort.SliceStable(checks, func(i, j int) bool { return !checks[i].OK && checks[j].OK })
	for _, c := range checks {
		mark := "pass"
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Printf("  check %-22s %s  %s\n", c.Name, mark, c.Detail)
	}
}
