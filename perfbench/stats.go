package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: fewer, and the percentile is one or two outliers, not a
// property of the system.
const minTail = 10

// quantile returns the nearest-rank p-quantile of sorted (ascending) and
// the number of samples strictly beyond it.
func quantile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	idx = max(0, min(idx, n-1))
	return sorted[idx], n - 1 - idx
}

// tailQuantile is quantile under the reporting rule: it fails when fewer
// than minTail samples lie beyond the p-quantile, so a run too short for
// its percentile errors out instead of reporting noise.
func tailQuantile(sorted []float64, p float64) (float64, error) {
	v, beyond := quantile(sorted, p)
	if beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d: measure longer", p*100, len(sorted), beyond, minTail)
	}
	return v, nil
}

// A run's latency samples are cut into up to maxWindows consecutive
// windows of at least windowMin samples each, so each window's p99 has
// minTail samples beyond it. The run's p50 and p99 are the lower
// quartiles, over the windows, of the window p50s and p99s.
//
// On a shared virtual host the hypervisor now and then withholds the vCPUs
// for tens of milliseconds (the kernel counts it as steal), in episodes that
// last minutes. A window in such an episode measures the host, not the
// code: across ten query-warm runs of 18 one-second windows, the whole-run
// p99 read 1.9 to 3.9 ms when quiet and up to 55 ms in an episode, while
// the fleet's CPU time per request stayed within 5%. The lower quartile
// over windows keeps the tail of the calmer windows (spread across ten
// runs: 7% for query-warm's p99, against 16% for the median over windows).
const (
	maxWindows = 20
	windowMin  = 100 * (minTail + 1)
)

// latencyQuantiles returns a run's p50 and p99 from latencies (ms) in the
// order their requests were sent.
func latencyQuantiles(xs []float64) (p50, p99 float64, err error) {
	k := max(1, min(maxWindows, len(xs)/windowMin))
	p50s, p99s := make([]float64, k), make([]float64, k)
	for w := range p50s {
		vals := sortedCopy(xs[w*len(xs)/k : (w+1)*len(xs)/k])
		p50s[w], _ = quantile(vals, 0.5)
		if p99s[w], err = tailQuantile(vals, 0.99); err != nil {
			return 0, 0, err
		}
	}
	sort.Float64s(p50s)
	sort.Float64s(p99s)
	p50, _ = quantile(p50s, 0.25)
	p99, _ = quantile(p99s, 0.25)
	diag, _ := json.Marshal(map[string][]float64{"p50": p50s, "p99": p99s})
	fmt.Fprintf(os.Stderr, "perfbench: p50 %.3f ms, p99 %.3f ms; windows %s\n", p50, p99, diag)
	return p50, p99, nil
}

// p50WindowMin is the fewest samples windowedP50 takes a median over. A
// median needs no tail, so a run too short for twenty p99 windows still
// gives twenty p50 windows.
const p50WindowMin = 100

// windowedP50 is the p50 of latencyQuantiles with windows of at least
// p50WindowMin samples: the lower quartile, over up to maxWindows
// consecutive windows of xs, of the window medians.
func windowedP50(xs []float64) (float64, error) {
	if len(xs) < p50WindowMin {
		return 0, fmt.Errorf("p50 of %d samples, need %d: measure longer", len(xs), p50WindowMin)
	}
	k := min(maxWindows, len(xs)/p50WindowMin)
	p50s := make([]float64, k)
	for w := range p50s {
		p50s[w], _ = quantile(sortedCopy(xs[w*len(xs)/k:(w+1)*len(xs)/k]), 0.5)
	}
	sort.Float64s(p50s)
	p50, _ := quantile(p50s, 0.25)
	fmt.Fprintf(os.Stderr, "perfbench: windowed p50 %.3f ms over %d samples; windows %.3f\n", p50, len(xs), p50s)
	return p50, nil
}

// median is the 0.5 quantile of an unsorted slice (which it sorts).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	v, _ := quantile(xs, 0.5)
	return v
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// sum adds up xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when the base b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
