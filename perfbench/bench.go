package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
)

// setupRepeats is how many fleets one run launches; setup_s is their
// median, and the last one takes the load. A set-up without -warm work
// lasts about 15 ms, mostly process start, so one launch reads the
// scheduler as much as the code.
const setupRepeats = 15

// bench is one workload's inputs and references, built from the seed
// before any fleet starts.
type bench struct {
	c        config
	spec     fleetSpec
	events   []Event           // query-* schedule
	items    []serve.SweepItem // sweep-mixed grid
	body     []byte            // sweep-mixed request
	warmWant map[key][]byte    // query-warm reference replies
	sweepRef sweepReference    // sweep-mixed reference results
}

func newBench(ctx context.Context, c config) (*bench, error) {
	b := &bench{c: c}
	var err error
	switch c.workload {
	case wQueryWarm:
		ws, err := warmKeys(c.seed)
		if err != nil {
			return nil, err
		}
		b.spec = fleetSpec{warm: ws.shapes, warmPrims: ws.prims, extra: ws.extra}
		if b.events, err = warmEvents(c.seed, warmRate, c.seconds); err != nil {
			return nil, err
		}
		b.warmWant, err = warmReplies(ctx, ws)
		return b, err
	case wQueryDynamic:
		b.spec = fleetSpec{warm: dynamicWarmShapes(), warmPrims: []hw.Primitive{hw.AllReduce}}
		b.events = dynamicEvents(c.seed, dynamicRate, c.seconds)
		return b, nil
	}
	b.items = sweepGrid(c.seed)
	b.body, err = json.Marshal(serve.SweepRequest{
		SweepSpec: serve.SweepSpec{Fidelity: serve.FidelityMixed, TopK: sweepTopK, RankQuantum: sweepQuantum, Tenant: "sweep"},
		Stream:    true,
		Items:     b.items,
	})
	if err != nil {
		return nil, err
	}
	b.sweepRef, err = newSweepReference(ctx, b.items)
	return b, err
}

// measurement is what the untraced run against the real fleet saw.
type measurement struct {
	samples               []sample   // query-*, in event order
	sweeps                []sweepRun // sweep-mixed
	before, after         shard.RouterStats
	routerCPU, replicaCPU time.Duration
	sloQPS                float64
	attempted, failed     int
	wrong                 int
	firstWrong            error
}

// cpuPerItem is the fleet's CPU time during the load per delivered item.
func (m *measurement) cpuPerItem(items int) float64 {
	return ratio(float64(m.routerCPU+m.replicaCPU)/float64(time.Millisecond), float64(items))
}

// measure launches setupRepeats fleets, drives the workload at the last
// one, reads its counters from outside, stops it and checks every answer.
// It fills the end-to-end metrics.
func (b *bench) measure(ctx context.Context, out metrics) (*measurement, error) {
	var setups []float64
	var f *fleet
	for i := 0; i < setupRepeats; i++ {
		fl, d, err := startFleet(ctx, b.c.binDir, b.c.logDir, b.spec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < setupRepeats-1 {
			fl.stop()
		} else {
			f = fl
		}
	}
	defer f.stop()
	m := &measurement{}
	var err error
	if m.before, err = f.stats(ctx); err != nil {
		return nil, err
	}
	r0, s0, err := f.cpu()
	if err != nil {
		return nil, err
	}
	if b.items != nil {
		m.sweeps = closedLoop(ctx, f.router, b.body, b.c.seconds, nil)
	} else {
		m.samples = openLoop(ctx, f.router, b.events, b.c.workers, nil)
	}
	r1, s1, err := f.cpu()
	if err != nil {
		return nil, err
	}
	m.routerCPU, m.replicaCPU = r1-r0, s1-s0
	if m.after, err = f.stats(ctx); err != nil {
		return nil, err
	}
	rss, err := f.peakRSS()
	if err != nil {
		return nil, err
	}
	if b.c.trace && b.c.workload == wQueryWarm {
		if m.sloQPS, err = b.ladder(ctx, f, m); err != nil {
			return nil, err
		}
	}
	f.stop()

	fmt.Fprintf(os.Stderr, "perfbench: set-up seconds %.4f\n", setups)
	out["setup_s"] = median(setups)
	out["peak_rss_mb"] = float64(rss) / 1e6
	if b.items != nil {
		err = b.sweepE2E(m, out)
	} else {
		err = b.queryE2E(ctx, m, out)
	}
	return m, err
}

// queryE2E fills the end-to-end metrics of an open-loop run. Below the
// knee the fleet answers at the offered rate whatever the code does, so
// items_per_s bounds only failures and overload there; p50_ms and the CPU
// per answer carry the per-request path's speed.
func (b *bench) queryE2E(ctx context.Context, m *measurement, out metrics) error {
	lat := make([]float64, len(m.samples))
	ok := 0
	var last time.Duration
	for i, s := range m.samples {
		lat[i] = float64(s.latency()) / float64(time.Millisecond)
		last = max(last, s.done)
		if s.failed() {
			m.failed++
		} else {
			ok++
		}
	}
	m.attempted += len(m.samples)
	var err error
	if out["p50_ms"], out["workload.p99_ms"], err = latencyQuantiles(lat); err != nil {
		return err
	}
	if b.c.workload == wQueryDynamic {
		if out["p50_ms"], err = windowedP50(cacheLatencies(m.samples, lat)); err != nil {
			return err
		}
	}
	out["items_per_s"] = float64(ok) / last.Seconds()
	out["fleet_cpu_ms_per_item"] = m.cpuPerItem(ok)
	lag99, backlog := generatorStats(m.samples)
	fmt.Fprintf(os.Stderr, "perfbench: %d requests, send lag p99 %.3f ms, backlog max %d\n", len(lat), lag99, backlog)

	var v verdict
	if b.c.workload == wQueryWarm {
		v = checkWarm(b.events, m.samples, b.warmWant)
	} else {
		if v, err = checkDynamic(ctx, b.events, m.samples); err != nil {
			return err
		}
	}
	m.addWrong(v)
	return nil
}

// cacheLatencies returns the latencies of the replies the shape cache
// answered (exact or nearest). query-dynamic's p50_ms is taken over them
// alone: about a quarter of its requests tune for several milliseconds, so
// the median of all requests falls near the cache answers' 70th
// percentile, where host stalls (steal) moved it by up to 4x between runs
// of the same code. The cache answers' own median moved about 10% under
// the same stalls. Its windows are short (windowedP50), so the lower
// quartile skips the stretches of a run that a steal episode slows. The
// tunes' cost stays bounded by fleet_cpu_ms_per_item.
func cacheLatencies(samples []sample, lat []float64) []float64 {
	var out []float64
	for i, s := range samples {
		var r struct {
			Source string `json:"source"`
		}
		if !s.failed() && json.Unmarshal(s.body, &r) == nil && r.Source == serve.SourceCache {
			out = append(out, lat[i])
		}
	}
	return out
}

// addWrong counts a check's wrong answers as failures.
func (m *measurement) addWrong(v verdict) {
	m.wrong += v.wrong
	m.failed += v.wrong
	if m.firstWrong == nil {
		m.firstWrong = v.first
	}
}

func (b *bench) sweepE2E(m *measurement, out metrics) error {
	var lat, rates []float64
	items := 0
	for _, run := range m.sweeps {
		m.attempted++
		if run.err != nil || run.status != http.StatusOK {
			m.failed++
			if m.firstWrong == nil {
				m.firstWrong = fmt.Errorf("sweep: status %d: %v", run.status, run.err)
			}
			continue
		}
		if v := checkSweep(b.sweepRef, run); v.wrong > 0 {
			// One failed sweep, however many of its items were wrong.
			m.addWrong(verdict{wrong: 1, first: v.first})
			continue
		}
		for _, a := range run.arrivals {
			lat = append(lat, float64(a)/float64(time.Millisecond))
		}
		rates = append(rates, float64(len(run.results))/run.elapsed.Seconds())
		items += len(run.results)
	}
	if len(rates) == 0 {
		return fmt.Errorf("no sweep completed: %v", m.firstWrong)
	}
	out["items_per_s"] = median(rates)
	out["fleet_cpu_ms_per_item"] = m.cpuPerItem(items)
	var err error
	out["p50_ms"], out["workload.p99_ms"], err = latencyQuantiles(lat)
	return err
}

// ladder runs query-warm's schedule at each warmLadder rate for a quarter
// of the run each and returns the highest rate that meets the SLO: p99
// (as workload.p99_ms takes it) within sloP99Ms, no failure, and a backlog
// that does not grow.
func (b *bench) ladder(ctx context.Context, f *fleet, m *measurement) (float64, error) {
	best := 0.0
	for _, rate := range warmLadder {
		evs, err := warmEvents(b.c.seed, rate, b.c.seconds/4)
		if err != nil {
			return 0, err
		}
		samples := openLoop(ctx, f.router, evs, b.c.workers, nil)
		lat := make([]float64, len(samples))
		failed := 0
		for i, s := range samples {
			lat[i] = float64(s.latency()) / float64(time.Millisecond)
			if s.failed() {
				failed++
			}
		}
		m.attempted += len(samples)
		m.failed += failed
		m.addWrong(checkWarm(evs, samples, b.warmWant))
		_, p99, err := latencyQuantiles(lat)
		if err != nil {
			return 0, err
		}
		if failed == 0 && p99 <= sloP99Ms && !backlogGrows(samples, b.c.workers) {
			best = rate
		}
	}
	return best, nil
}

// sloP99Ms is query-warm's latency limit: well under the LLM decode step
// whose launch the answer gates.
const sloP99Ms = 5.0

// generatorStats returns the generator's own send lag p99 in ms and the
// largest backlog it saw.
func generatorStats(samples []sample) (lagP99 float64, backlog int) {
	lags := make([]float64, len(samples))
	for i, s := range samples {
		lags[i] = float64(s.lag()) / float64(time.Millisecond)
		backlog = max(backlog, s.backlog)
	}
	lagP99, _ = quantile(sortedCopy(lags), 0.99)
	return lagP99, backlog
}

// backlogGrows reports whether the generator fell steadily behind: the
// mean backlog over the last quarter of the run exceeds twice that of the
// first quarter by more than one request per connection.
func backlogGrows(samples []sample, workers int) bool {
	q := len(samples) / 4
	if q == 0 {
		return false
	}
	mean := func(ss []sample) float64 {
		t := 0
		for _, s := range ss {
			t += s.backlog
		}
		return float64(t) / float64(len(ss))
	}
	return mean(samples[len(samples)-q:]) > 2*mean(samples[:q])+float64(workers)
}

// layers fills the per-layer metrics: counters from outside the untraced
// fleet run, spans from the traced in-process run, and direct replays.
func (b *bench) layers(ctx context.Context, m *measurement, out metrics) error {
	b.outsideCounters(m, out)
	if err := b.tracedRun(ctx, m, out); err != nil {
		return err
	}
	if b.items != nil {
		g, err := replayGrid(ctx, b.items)
		if err != nil {
			return err
		}
		out["engine.mixed_batch_ms"] = g.mixedMs
		out["engine.refined_share"] = float64(g.refined) / float64(len(b.items))
		out["core.compile_us_p50"], _ = quantile(g.compileUs, 0.5)
		out["core.exec_des_us_p50"], _ = quantile(g.execDESUs, 0.5)
		out["core.exec_des_busy_ms"] = sum(g.execDESUs) / 1e3
		out["core.exec_analytic_us_p50"], _ = quantile(g.execAnalytic, 0.5)
		return nil
	}
	cache, tuned, err := replayService(ctx, b.spec, b.events)
	if err != nil {
		return err
	}
	out["serve.query_cache_us_p50"], _ = quantile(cache, 0.5)
	out["serve.query_tuned_ms_p50"], _ = quantile(tuned, 0.5)
	out["serve.query_tuned_ms_p99"], _ = quantile(tuned, 0.99)
	tr, err := replayTuner(ctx, b.spec, b.events)
	if err != nil {
		return err
	}
	out["tuner.tunes"] = float64(len(tr.tuneMs))
	out["tuner.tune_ms_p50"], _ = quantile(tr.tuneMs, 0.5)
	out["tuner.tune_ms_p99"], _ = quantile(tr.tuneMs, 0.99)
	out["tuner.tune_busy_s"] = sum(tr.tuneMs) / 1e3
	out["tuner.candidates_mean"] = ratio(sum(tr.candidates), float64(len(tr.candidates)))
	out["tuner.lookup_us_p50"], _ = quantile(tr.lookupUs, 0.5)
	out["tuner.evictions"] = float64(tr.evictions)
	plans, err := timePlans(b.events)
	if err != nil {
		return err
	}
	out["gemm.new_plan_us_p50"], _ = quantile(plans, 0.5)
	if b.c.workload == wQueryDynamic {
		if out["tuner.long_prefill_tune_s"], err = timeLongPrefillTunes(ctx); err != nil {
			return err
		}
	}
	return nil
}

// outsideCounters derives the per-layer counters of the untraced run from
// the router's /stats deltas, /proc CPU and the generator's own clock.
func (b *bench) outsideCounters(m *measurement, out metrics) {
	req := float64(len(m.samples) + len(m.sweeps))
	out["workload.requests"] = req
	out["workload.slo_qps"] = m.sloQPS
	d := func(get func(serve.Stats) uint64) float64 {
		return float64(get(m.after.Merged) - get(m.before.Merged))
	}
	hits := d(func(s serve.Stats) uint64 { return s.Hits })
	misses := d(func(s serve.Stats) uint64 { return s.Misses })
	encoded := d(func(s serve.Stats) uint64 { return s.EncodedHits })
	collapsed := d(func(s serve.Stats) uint64 { return s.Collapsed })
	tunes := d(func(s serve.Stats) uint64 { return s.Tunes })
	planHits := d(func(s serve.Stats) uint64 { return s.Engine.Hits })
	planMisses := d(func(s serve.Stats) uint64 { return s.Engine.Misses })
	out["serve.lookups"] = hits + misses
	out["serve.hit_ratio"] = ratio(hits, hits+misses)
	out["serve.encoded_hit_ratio"] = ratio(encoded, hits+misses)
	out["serve.misses"] = misses
	out["serve.collapsed_ratio"] = ratio(collapsed, misses)
	out["serve.tunes"] = tunes
	out["engine.plan_lookups"] = planHits + planMisses
	out["engine.plan_hit_ratio"] = ratio(planHits, planHits+planMisses)
	out["shard.router.failovers"] = float64(m.after.Failovers - m.before.Failovers)
	out["shard.router.cpu_ms_per_req"] = ratio(float64(m.routerCPU)/float64(time.Millisecond), req)
	out["serve.cpu_ms_per_req"] = ratio(float64(m.replicaCPU)/float64(time.Millisecond), req)
	evictions := 0.0
	for _, rs := range m.after.PerShard {
		evictions += float64(rs.Stats.Tunes) - float64(rs.Stats.ShapesCached)
	}
	out["input.evictions"] = evictions

	if b.items != nil {
		items, des, wire := 0.0, 0.0, 0.0
		var first []float64
		for _, run := range m.sweeps {
			items += float64(len(run.results))
			wire += float64(run.bytes)
			first = append(first, float64(run.firstResult)/float64(time.Millisecond))
			for _, line := range run.results {
				if bytes.Contains(line, []byte(`"fidelity":"des"`)) {
					des++
				}
			}
		}
		out["serve.sweep_bytes_per_item"] = ratio(wire, items)
		out["sweep.first_result_ms"] = median(first)
		out["input.refined_share"] = ratio(des, items)
		n := float64(len(b.items))
		out["input.repeat_share"] = ratio(items-n, items)
		return
	}
	lag99, backlog := generatorStats(m.samples)
	out["workload.send_lag_p99_ms"] = lag99
	out["workload.backlog_max"] = float64(backlog)
	out["input.exact_hit_share"] = ratio(encoded, req)
	out["input.nearest_hit_share"] = ratio(hits-encoded, req)
	out["input.tune_share"] = ratio(tunes, req)
	out["input.collapse_share"] = ratio(collapsed, req)
	seen := map[key]bool{}
	perOwnerKeys := make([]map[key]bool, fleetShards)
	for i := range perOwnerKeys {
		perOwnerKeys[i] = map[key]bool{}
	}
	part := shard.NewPartitioner(fleetShards)
	repeats := 0
	for _, ev := range b.events {
		k := keyOf(ev.Query)
		if seen[k] {
			repeats++
		}
		seen[k] = true
		perOwnerKeys[part.Owner(k.shape)][k] = true
	}
	out["input.repeat_share"] = ratio(float64(repeats), float64(len(b.events)))
	maxKeys := 0
	for _, ks := range perOwnerKeys {
		maxKeys = max(maxKeys, len(ks))
	}
	out["input.distinct_keys_max_replica"] = float64(maxKeys)
}

// tracedRun replays the first half of the workload against an in-process
// fleet twice — once with spans at every boundary, once without — and
// fills the span-derived metrics and the tracing overhead.
func (b *bench) tracedRun(ctx context.Context, m *measurement, out metrics) error {
	spans := &spanLog{}
	traced, err := b.inprocRun(ctx, spans, m)
	if err != nil {
		return err
	}
	untraced, err := b.inprocRun(ctx, nil, m)
	if err != nil {
		return err
	}
	out["trace.p50_ms"], out["trace.untraced_p50_ms"] = traced, untraced
	out["trace.overhead_p50_ms"] = traced - untraced

	self, hops := spans.routerBreakdown()
	out["shard.router.self_us_p50"], _ = quantile(self, 0.5)
	out["shard.router.self_us_p99"], _ = quantile(self, 0.99)
	out["shard.router.hops_per_req"] = ratio(sum(hops), float64(len(hops)))
	for _, p := range []struct {
		name, span string
		unit       time.Duration
	}{
		{"shard.client.query_us", spanClientQuery, time.Microsecond},
		{"shard.client.sweep_chunk_ms", spanClientSweep, time.Millisecond},
		{"serve.handler_us", spanHandler, time.Microsecond},
	} {
		ds := spans.durations(p.span, p.unit)
		out[p.name+"_p50"], _ = quantile(ds, 0.5)
		out[p.name+"_p99"], _ = quantile(ds, 0.99)
	}
	return nil
}

// inprocRun drives the first half of the workload at a fresh in-process
// fleet and returns the p50 latency in ms; with spans set, every boundary
// records.
func (b *bench) inprocRun(ctx context.Context, spans *spanLog, m *measurement) (float64, error) {
	ip, err := startInproc(ctx, b.spec, spans)
	if err != nil {
		return 0, err
	}
	defer ip.stop()
	var lat []float64
	if b.items != nil {
		for _, run := range closedLoop(ctx, ip.router, b.body, b.c.seconds/2, spans) {
			m.attempted++
			if run.err != nil || run.status != http.StatusOK {
				m.failed++
			}
			for _, a := range run.arrivals {
				lat = append(lat, float64(a)/float64(time.Millisecond))
			}
		}
	} else {
		var evs []Event
		for _, ev := range b.events {
			if ev.Due < b.c.seconds/2 {
				evs = append(evs, ev)
			}
		}
		for _, s := range openLoop(ctx, ip.router, evs, b.c.workers, spans) {
			m.attempted++
			if s.failed() {
				m.failed++
			}
			lat = append(lat, float64(s.latency())/float64(time.Millisecond))
		}
	}
	return median(lat), nil
}
