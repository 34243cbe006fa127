package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// headline is one gated metric of the perf trajectory. Non-headline metrics
// are reported in the delta table but never fail the gate: absolute ns/op of
// a figure regeneration varies with the runner, while the headlines are
// either ratios (machine-robust) or min-of-batches latencies built to be
// stable at -benchtime 1x.
type headline struct {
	Bench  string
	Metric string
	// HigherBetter: a speedup regresses downward, a latency upward.
	HigherBetter bool
	Label        string
}

// headlines are the metrics the ROADMAP's perf trajectory is judged on: the
// engine's plan-cache speedup, the serving layer's warm-query latency, the
// sweep plane's analytic and mixed-fidelity per-item costs, and the
// streaming sweep's per-item latency and allocation. All are ratios,
// min-of-batches latencies, or deterministic allocation counts, stable at
// -benchtime 1x.
var headlines = []headline{
	{Bench: "BenchmarkEnginePlanCacheSpeedup", Metric: "plan-cache-speedup", HigherBetter: true, Label: "plan-cache speedup"},
	{Bench: "BenchmarkServeWarmQuery", Metric: "warm-ns/query", HigherBetter: false, Label: "serve warm-query latency"},
	{Bench: "BenchmarkEngineAnalyticExec", Metric: "analytic-ns/item", HigherBetter: false, Label: "analytic fast-path latency"},
	{Bench: "BenchmarkMixedFidelitySweep", Metric: "mixed-sweep-ns/item", HigherBetter: false, Label: "mixed-fidelity sweep latency"},
	{Bench: "BenchmarkStreamingSweep", Metric: "stream-sweep-ns/item", HigherBetter: false, Label: "streaming sweep latency"},
	{Bench: "BenchmarkStreamingSweep", Metric: "stream-sweep-bytes/item", HigherBetter: false, Label: "streaming sweep allocation"},
	{Bench: "BenchmarkServeWarmQueryEncoded", Metric: "warm-allocs/query", HigherBetter: false, Label: "warm encoded-query allocations"},
	{Bench: "BenchmarkSnapshotRestart", Metric: "cold-restart-to-warm-ms", HigherBetter: false, Label: "snapshot restart-to-warm time"},
	{Bench: "BenchmarkLoadgenReplay", Metric: "loadgen-p99-ms", HigherBetter: false, Label: "loadgen replay p99 latency"},
	{Bench: "BenchmarkLoadgenReplay", Metric: "loadgen-qps", HigherBetter: true, Label: "loadgen replay throughput"},
}

func loadReport(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func byName(rep Report) map[string]Benchmark {
	out := make(map[string]Benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		out[b.Name] = b
	}
	return out
}

// diffReports prints the Markdown delta table and headline-gate verdicts to
// stdout and returns an error when the gate fails: a benchmark recorded in
// the old report is missing from the new one (a silently shrunk perf
// trajectory), or a headline metric regressed past threshold.
func diffReports(oldPath, newPath string, threshold float64) error {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return err
	}
	oldBy, newBy := byName(oldRep), byName(newRep)

	var missing []string
	for name := range oldBy {
		if _, ok := newBy[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)

	fmt.Printf("### Benchmark diff: %s (%s) vs %s (%s)\n\n", oldRep.Tag, oldPath, newRep.Tag, newPath)
	printDeltaTable(oldBy, newBy)

	fmt.Printf("\n### Headline gate (threshold %.0f%%)\n\n", threshold*100)
	fmt.Println("| headline | old | new | delta | verdict |")
	fmt.Println("|---|---:|---:|---:|---|")
	var regressions []string
	for _, h := range headlines {
		oldVal, oldOK := metricOf(oldBy, h.Bench, h.Metric)
		newVal, newOK := metricOf(newBy, h.Bench, h.Metric)
		switch {
		case !newOK:
			// A headline the new record no longer reports is a gate
			// failure unless the old record never had it either.
			if oldOK {
				regressions = append(regressions, fmt.Sprintf("%s: metric %s/%s missing from new record", h.Label, h.Bench, h.Metric))
				fmt.Printf("| %s | %s | — | — | MISSING |\n", h.Label, num(oldVal))
			} else {
				fmt.Printf("| %s | — | — | — | not recorded |\n", h.Label)
			}
		case !oldOK:
			fmt.Printf("| %s | — | %s | — | new metric, no baseline |\n", h.Label, num(newVal))
		default:
			delta := (newVal - oldVal) / oldVal
			worse := delta
			if h.HigherBetter {
				worse = -delta
			}
			verdict := "ok"
			if worse > threshold {
				verdict = "REGRESSED"
				regressions = append(regressions, fmt.Sprintf("%s: %s -> %s (%+.1f%%, limit %.0f%%)",
					h.Label, num(oldVal), num(newVal), delta*100, threshold*100))
			}
			fmt.Printf("| %s | %s | %s | %+.1f%% | %s |\n", h.Label, num(oldVal), num(newVal), delta*100, verdict)
		}
	}

	if len(missing) > 0 {
		fmt.Printf("\n**%d benchmark(s) missing from the new record:** %s\n", len(missing), strings.Join(missing, ", "))
		return fmt.Errorf("%d benchmark(s) disappeared from the perf record: %s", len(missing), strings.Join(missing, ", "))
	}
	if len(regressions) > 0 {
		return fmt.Errorf("headline regression:\n  %s", strings.Join(regressions, "\n  "))
	}
	fmt.Printf("\nGate passed: %d benchmarks compared, no headline regression.\n", len(oldBy))
	return nil
}

func printDeltaTable(oldBy, newBy map[string]Benchmark) {
	names := make([]string, 0, len(newBy))
	for name := range newBy {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Println("| benchmark | metric | old | new | delta |")
	fmt.Println("|---|---|---:|---:|---:|")
	for _, name := range names {
		nb := newBy[name]
		ob, hasOld := oldBy[name]
		metrics := make([]string, 0, len(nb.Metrics))
		for m := range nb.Metrics {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			newVal := nb.Metrics[m]
			oldVal, hasMetric := ob.Metrics[m]
			switch {
			case !hasOld || !hasMetric:
				fmt.Printf("| %s | %s | — | %s | new |\n", name, m, num(newVal))
			case oldVal == 0:
				fmt.Printf("| %s | %s | %s | %s | — |\n", name, m, num(oldVal), num(newVal))
			default:
				fmt.Printf("| %s | %s | %s | %s | %+.1f%% |\n", name, m, num(oldVal), num(newVal), (newVal-oldVal)/oldVal*100)
			}
		}
	}
}

func metricOf(by map[string]Benchmark, bench, metric string) (float64, bool) {
	b, ok := by[bench]
	if !ok {
		return 0, false
	}
	v, ok := b.Metrics[metric]
	return v, ok
}

// num renders a metric compactly: integers without noise, ratios with
// precision.
func num(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}
