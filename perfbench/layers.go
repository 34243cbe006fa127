package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/tuner"
)

// Direct replays time calls into one layer's public functions on the
// workload's own inputs, with nothing else running.

// byOwner splits events by the replica that owns them, so each replayed
// cache sees the same keys a fleet replica sees.
func byOwner(events []Event) [][]Event {
	part := shard.NewPartitioner(fleetShards)
	out := make([][]Event, fleetShards)
	for _, ev := range events {
		o := part.Owner(ev.Query.Shape)
		out[o] = append(out[o], ev)
	}
	return out
}

// perOwner runs fn once per replica slice, concurrently, and returns the
// first error.
func perOwner(events []Event, fn func(i int, evs []Event) error) error {
	groups := byOwner(events)
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for i, evs := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, evs)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// replayService replays the events serially into one warmed serve.Service
// per replica slice, the way serve.Handler calls it: QueryEncoded first,
// Query on a miss. It returns per-call times of cache answers (either path)
// and of tuned answers.
func replayService(ctx context.Context, spec fleetSpec, events []Event) (cache, tuned []float64, err error) {
	var mu sync.Mutex
	err = perOwner(events, func(i int, evs []Event) error {
		a, err := shard.ParseAssignment(fmt.Sprintf("%d/%d", i, fleetShards))
		if err != nil {
			return err
		}
		svc, err := serve.New(serve.Config{Plat: fleetPlat(), NGPUs: fleetGPUs, Owns: a.Owns, Shard: a.String()})
		if err != nil {
			return err
		}
		if len(spec.warm) > 0 {
			if err := svc.Warm(ctx, spec.warmPrims, spec.warm, 0); err != nil {
				return err
			}
		}
		for _, q := range spec.extra {
			if _, err := svc.Query(ctx, q); err != nil {
				return err
			}
		}
		var c, t []float64
		for _, ev := range evs {
			start := time.Now()
			if _, ok := svc.QueryEncoded(ev.Query); ok {
				c = append(c, float64(time.Since(start))/float64(time.Microsecond))
				continue
			}
			ans, err := svc.Query(ctx, ev.Query)
			d := time.Since(start)
			if err != nil {
				return err
			}
			if ans.Source == serve.SourceTuned {
				t = append(t, float64(d)/float64(time.Millisecond))
			} else {
				c = append(c, float64(d)/float64(time.Microsecond))
			}
		}
		mu.Lock()
		cache, tuned = append(cache, c...), append(tuned, t...)
		mu.Unlock()
		return nil
	})
	sort.Float64s(cache)
	sort.Float64s(tuned)
	return cache, tuned, err
}

// tunerReplay is what replayTuner measured.
type tunerReplay struct {
	tuneMs     []float64 // tuner.Tune per warm key and per miss, sorted
	lookupUs   []float64 // Tuner.LookupAt per event, sorted
	candidates []float64 // len(tuner.Candidates) per distinct tuned shape
	evictions  int       // Tuner.OnEvict calls
}

// replayTuner replays the events into fresh tuners, one per replica slice
// and primitive, configured like a replica's: the warm keys are tuned
// first (the tuning a fleet's set-up does), then every event looks its
// shape up and tunes on a miss.
func replayTuner(ctx context.Context, spec fleetSpec, events []Event) (tunerReplay, error) {
	var out tunerReplay
	var mu sync.Mutex
	waveSize := fleetPlat().GPU.SMs - fleetPlat().CommSMs
	counted := map[int]bool{} // candidate counts depend only on the wave count
	err := perOwner(events, func(i int, evs []Event) error {
		part := shard.NewPartitioner(fleetShards)
		evictions := 0
		tuners := map[hw.Primitive]*tuner.Tuner{}
		get := func(p hw.Primitive) *tuner.Tuner {
			if tn := tuners[p]; tn != nil {
				return tn
			}
			tn := newRefTuner(p)
			tn.OnEvict = func(gemm.Shape, float64) { evictions++ }
			tuners[p] = tn
			return tn
		}
		var tunes, lookups []float64
		var waves []int
		tune := func(tn *tuner.Tuner, s gemm.Shape, imb float64) error {
			start := time.Now()
			if _, err := tn.Tune(ctx, s, imb); err != nil {
				return err
			}
			tunes = append(tunes, float64(time.Since(start))/float64(time.Millisecond))
			plan, err := gemm.NewPlan(s, gemm.DefaultConfig(s))
			if err != nil {
				return err
			}
			waves = append(waves, plan.Waves(waveSize))
			return nil
		}
		for _, p := range spec.warmPrims {
			for _, s := range spec.warm {
				if part.Owner(s) != i {
					continue
				}
				if err := tune(get(p), s, 0); err != nil {
					return err
				}
			}
		}
		for _, q := range spec.extra {
			if part.Owner(q.Shape) != i {
				continue
			}
			if err := tune(get(q.Prim), q.Shape, q.Imbalance); err != nil {
				return err
			}
		}
		for _, ev := range evs {
			tn := get(ev.Query.Prim)
			start := time.Now()
			_, ok := tn.LookupAt(ev.Query.Shape, ev.Query.Imbalance)
			lookups = append(lookups, float64(time.Since(start))/float64(time.Microsecond))
			if ok {
				continue
			}
			if err := tune(tn, ev.Query.Shape, ev.Query.Imbalance); err != nil {
				return err
			}
		}
		mu.Lock()
		defer mu.Unlock()
		out.tuneMs = append(out.tuneMs, tunes...)
		out.lookupUs = append(out.lookupUs, lookups...)
		out.evictions += evictions
		for _, w := range waves {
			if !counted[w] {
				counted[w] = true
				out.candidates = append(out.candidates, float64(w))
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	// Count candidates once per distinct wave count, after the timed
	// replay, so the counting does not compete with the tunes.
	for i, w := range out.candidates {
		out.candidates[i] = float64(len(tuner.Candidates(int(w), tuner.DefaultS1, tuner.DefaultSP, 512)))
	}
	sort.Float64s(out.tuneMs)
	sort.Float64s(out.lookupUs)
	return out, nil
}

// longPrefillM are the largest unaligned prefill token counts under
// query-dynamic's budget. Their tunes are the tuner's hot spot at its
// worst — TileM=1 plans of thousands of waves — and the workload's skewed
// draw reaches them too rarely for its own tune percentiles to show them.
var longPrefillM = []int{prefillMax/2 - 1, prefillMax - 1}

// timeLongPrefillTunes returns the seconds tuner.Tune takes, in a fresh
// replica-configured tuner, on every AR op at each longPrefillM.
func timeLongPrefillTunes(ctx context.Context) (float64, error) {
	busy := time.Duration(0)
	for _, m := range longPrefillM {
		for _, s := range llamaAROps(m, false) {
			tn := newRefTuner(hw.AllReduce)
			start := time.Now()
			if _, err := tn.Tune(ctx, s, 0); err != nil {
				return 0, err
			}
			busy += time.Since(start)
		}
	}
	return busy.Seconds(), nil
}

// timePlans times gemm.NewPlan on every event's shape.
func timePlans(events []Event) ([]float64, error) {
	out := make([]float64, 0, len(events))
	for _, ev := range events {
		s := ev.Query.Shape
		start := time.Now()
		if _, err := gemm.NewPlan(s, gemm.DefaultConfig(s)); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(start))/float64(time.Microsecond))
	}
	sort.Float64s(out)
	return out, nil
}

// gridReplay is what replayGrid measured on the sweep grid.
type gridReplay struct {
	mixedMs      float64   // engine.MixedBatch, median of 3 on one engine
	refined      int       // items MixedBatch re-ran on the DES
	compileUs    []float64 // core.Compile per item
	execDESUs    []float64 // Compiled.Exec per refined item
	execAnalytic []float64 // Compiled.ExecAnalytic per item, in µs
}

func replayGrid(ctx context.Context, items []serve.SweepItem) (gridReplay, error) {
	var out gridReplay
	runs, err := sweepRuns(items)
	if err != nil {
		return out, err
	}
	eng := engine.New(0, 0)
	var mixed []float64
	var refined []int
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, refined, err = eng.MixedBatch(ctx, runs, sweepTopK, sweepQuantum); err != nil {
			return out, err
		}
		mixed = append(mixed, float64(time.Since(start))/float64(time.Millisecond))
	}
	out.mixedMs, out.refined = median(mixed), len(refined)
	curves := map[hw.Primitive]*stats.Curve{}
	compiled := make([]*core.Compiled, len(runs))
	for i, o := range runs {
		start := time.Now()
		c, err := core.Compile(o)
		if err != nil {
			return out, err
		}
		out.compileUs = append(out.compileUs, float64(time.Since(start))/float64(time.Microsecond))
		compiled[i] = c
		if curves[o.Prim] == nil {
			curves[o.Prim] = tuner.SampleBandwidthCurve(o.Plat, o.NGPUs, o.Prim, nil)
		}
	}
	for i, c := range compiled {
		v := c.DefaultVariant()
		v.Fidelity = core.FidelityAnalytic
		start := time.Now()
		if _, err := c.ExecAnalytic(v, curves[runs[i].Prim]); err != nil {
			return out, err
		}
		out.execAnalytic = append(out.execAnalytic, float64(time.Since(start))/float64(time.Microsecond))
	}
	for _, i := range refined {
		v := compiled[i].DefaultVariant()
		v.Fidelity = core.FidelityDES
		start := time.Now()
		if _, err := compiled[i].Exec(ctx, v); err != nil {
			return out, err
		}
		out.execDESUs = append(out.execDESUs, float64(time.Since(start))/float64(time.Microsecond))
	}
	sort.Float64s(out.compileUs)
	sort.Float64s(out.execDESUs)
	sort.Float64s(out.execAnalytic)
	return out, nil
}
