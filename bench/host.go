package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"segscale/pkg/summitseg"
)

// printHeader writes the provenance line of a report: what the
// numbers below were measured on.
func printHeader(title string, o options) {
	fmt.Printf("# %s: nproc=%d gomaxprocs=%d go=%s rev=%s seed=%d seconds=%d trace=%d\n", title,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), summitseg.GitRev(), o.seed, o.seconds, o.trace)
}

// peakRSSMB reads this process's high-water resident set (VmHWM) from
// /proc. It is an error where /proc does not carry it: a made-up
// number would pass for a measurement.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("peak rss: parse %q: %w", sc.Text(), err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	return 0, fmt.Errorf("peak rss: no VmHWM line in /proc/self/status")
}
