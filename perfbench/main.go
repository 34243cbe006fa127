// Command perfbench is the repository benchmark. It launches a fresh fleet
// of the real binaries — two cmd/serve replicas behind one cmd/route, all
// on 127.0.0.1 — drives one workload at it from a single generator process,
// checks every answer against an in-process reference, and prints one JSON
// result line:
//
//	bash perfbench/run.sh --workload query-warm --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//	query-warm     open-loop /query at a fixed rate, every key pre-warmed:
//	               the per-request path with no tuning or execution
//	query-dynamic  open-loop /query on skewed, unaligned token counts:
//	               tuner search, nearest lookup, shape-cache churn
//	sweep-mixed    closed-loop streamed mixed-fidelity /sweep of a
//	               240-item grid: coordinator, v2 stream, analytic + DES
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1 it
// holds the per-layer metrics: counters read from outside the untraced
// fleet (/stats deltas, /proc CPU), spans recorded at the boundaries of an
// in-process fleet built from the same constructors, and direct timings of
// each layer's public functions on the workload's inputs. LAYERS.md maps
// every per-layer metric to the end-to-end metric it should move.
//
// The command exits non-zero when any answer is wrong or any request
// fails, and without printing a result when it cannot measure at all.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	binDir   string
	logDir   string
	workers  int
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var c config
	var seconds, trace int
	flag.StringVar(&c.workload, "workload", "", "workload: query-warm, query-dynamic or sweep-mixed")
	flag.Int64Var(&c.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 30, "measured seconds of load per run")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics instead of end-to-end ones")
	flag.StringVar(&c.binDir, "bin", "", "directory holding the serve and route binaries")
	flag.StringVar(&c.logDir, "logs", "", "directory for the fleet's logs")
	flag.Parse()
	c.seconds, c.trace = time.Duration(seconds)*time.Second, trace == 1
	// One generator worker and one connection per CPU: the generator
	// shares the host with the fleet it measures.
	c.workers = runtime.NumCPU()
	if c.binDir == "" || c.logDir == "" || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -bin, -logs, --seconds >= 1 and --trace 0|1 are required")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	res, err := run(ctx, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	os.Exit(exitCode(res))
}

// exitCode fails the run on any wrong answer or failed request, after the
// result line is out.
func exitCode(r result) int {
	if !r.Correct || r.Failed > 0 {
		return 1
	}
	return 0
}

func run(ctx context.Context, c config) (result, error) {
	var b *bench
	var err error
	switch c.workload {
	case wQueryWarm, wQueryDynamic, wSweepMixed:
		b, err = newBench(ctx, c)
	default:
		err = fmt.Errorf("unknown workload %q (want %s, %s or %s)", c.workload, wQueryWarm, wQueryDynamic, wSweepMixed)
	}
	if err != nil {
		return result{}, err
	}
	out := metrics{}
	m, err := b.measure(ctx, out)
	if err != nil {
		return result{}, err
	}
	if c.trace {
		if err := b.layers(ctx, m, out); err != nil {
			return result{}, err
		}
	}
	names := e2eMetrics
	if c.trace {
		names = layerMetrics
	}
	res := result{Correct: m.wrong == 0, Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	for _, d := range names {
		v, ok := out[d.name]
		if !ok && !c.trace {
			return result{}, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if m.firstWrong != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", m.firstWrong)
	}
	return res, nil
}

// metrics collects values by name; the unit comes from the tables below.
type metrics map[string]float64

type metricDef struct{ name, unit string }

// e2eMetrics are what a user of the fleet sees, printed with --trace 0 on
// every workload. fail_frac is not among them: it is 0 on a healthy run,
// and the result line's attempted and failed fields carry it. p99 is a
// per-layer metric (workload.p99_ms): on a shared virtual host it moves
// with the hypervisor's steal more than with the code (LAYERS.md gives the
// measurements).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "items/s"},
	{"p50_ms", "ms"},
	{"fleet_cpu_ms_per_item", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are printed with --trace 1 on every workload; a layer the
// workload does not exercise reads 0. Ratios come with their base count.
var layerMetrics = []metricDef{
	{"workload.p99_ms", "ms"},
	{"workload.requests", "count"},
	{"workload.send_lag_p99_ms", "ms"},
	{"workload.backlog_max", "count"},
	{"workload.slo_qps", "req/s"},
	{"input.repeat_share", "ratio"},
	{"input.exact_hit_share", "ratio"},
	{"input.nearest_hit_share", "ratio"},
	{"input.tune_share", "ratio"},
	{"input.collapse_share", "ratio"},
	{"input.evictions", "count"},
	{"input.distinct_keys_max_replica", "count"},
	{"input.refined_share", "ratio"},
	{"shard.router.self_us_p50", "us"},
	{"shard.router.self_us_p99", "us"},
	{"shard.router.hops_per_req", "ratio"},
	{"shard.router.failovers", "count"},
	{"shard.router.cpu_ms_per_req", "ms"},
	{"shard.client.query_us_p50", "us"},
	{"shard.client.query_us_p99", "us"},
	{"shard.client.sweep_chunk_ms_p50", "ms"},
	{"shard.client.sweep_chunk_ms_p99", "ms"},
	{"serve.handler_us_p50", "us"},
	{"serve.handler_us_p99", "us"},
	{"serve.cpu_ms_per_req", "ms"},
	{"serve.lookups", "count"},
	{"serve.hit_ratio", "ratio"},
	{"serve.encoded_hit_ratio", "ratio"},
	{"serve.misses", "count"},
	{"serve.collapsed_ratio", "ratio"},
	{"serve.tunes", "count"},
	{"serve.query_cache_us_p50", "us"},
	{"serve.query_tuned_ms_p50", "ms"},
	{"serve.query_tuned_ms_p99", "ms"},
	{"serve.sweep_bytes_per_item", "bytes"},
	{"sweep.first_result_ms", "ms"},
	{"tuner.tunes", "count"},
	{"tuner.tune_ms_p50", "ms"},
	{"tuner.tune_ms_p99", "ms"},
	{"tuner.tune_busy_s", "s"},
	{"tuner.candidates_mean", "count"},
	{"tuner.lookup_us_p50", "us"},
	{"tuner.evictions", "count"},
	{"tuner.long_prefill_tune_s", "s"},
	{"gemm.new_plan_us_p50", "us"},
	{"engine.mixed_batch_ms", "ms"},
	{"engine.refined_share", "ratio"},
	{"engine.plan_lookups", "count"},
	{"engine.plan_hit_ratio", "ratio"},
	{"core.compile_us_p50", "us"},
	{"core.exec_des_us_p50", "us"},
	{"core.exec_des_busy_ms", "ms"},
	{"core.exec_analytic_us_p50", "us"},
	{"trace.p50_ms", "ms"},
	{"trace.untraced_p50_ms", "ms"},
	{"trace.overhead_p50_ms", "ms"},
}
