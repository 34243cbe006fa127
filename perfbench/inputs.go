package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Workload names, as --workload takes them.
const (
	wQueryWarm    = "query-warm"
	wQueryDynamic = "query-dynamic"
	wSweepMixed   = "sweep-mixed"
)

// Fleet configuration shared by the real binaries, the in-process fleet and
// every reference computation: cmd/serve's defaults on 4 GPUs.
const (
	fleetGPUs   = 4
	fleetShards = 2
)

func fleetPlat() hw.Platform { return hw.RTX4090PCIe() }

// Open-loop rates. warmRate sits well below the warm path's knee (between
// 2000 and 4000 req/s on a 2-vCPU host), so p99 measures service time, not
// overload. warmLadder is the fixed ladder behind workload.slo_qps.
// At dynamicRate about a third of the requests tune, which takes about a
// quarter of one core of two, and a 30 s run's 3000 requests give the p99
// its ten samples beyond.
const (
	warmRate    = 1000.0
	dynamicRate = 100.0
)

var warmLadder = []float64{500, 1000, 2000, 3000}

// Mixed sweep policy: DES re-runs of the best 2 items per 1-log2-wide
// shape cell, about a quarter of the grid.
const (
	sweepTopK    = 2
	sweepQuantum = 1.0
)

// Event is one scheduled /query of an open-loop workload.
type Event struct {
	Due   time.Duration // offset from the start of the run
	Query serve.Query
}

// path renders the event as the /query request line the generator sends.
func (e Event) path() string {
	v := url.Values{}
	v.Set("m", strconv.Itoa(e.Query.Shape.M))
	v.Set("n", strconv.Itoa(e.Query.Shape.N))
	v.Set("k", strconv.Itoa(e.Query.Shape.K))
	v.Set("prim", e.Query.Prim.Short())
	if e.Query.Imbalance != 0 {
		v.Set("imbalance", strconv.FormatFloat(e.Query.Imbalance, 'g', -1, 64))
	}
	if e.Query.Tenant != "" {
		v.Set("tenant", e.Query.Tenant)
	}
	return "/query?" + v.Encode()
}

// key identifies the cache entry an event asks for (tenant excluded, as in
// the service).
type key struct {
	prim  hw.Primitive
	shape gemm.Shape
	imb   float64
}

func keyOf(q serve.Query) key {
	imb := q.Imbalance
	if imb < 1 {
		imb = 1
	}
	return key{prim: q.Prim, shape: q.Shape, imb: imb}
}

// warmEvents is query-warm's schedule: workload.Synth's three tenant
// archetypes (AR decode, RS prefill, A2A at imbalance 1.5) with Poisson
// arrivals (Burst 1) at rate req/s for d.
func warmEvents(seed int64, rate float64, d time.Duration) ([]Event, error) {
	tr := workload.Synth(workload.SynthConfig{Tenants: 3, Duration: d, QPS: rate, Burst: 1, Seed: seed})
	out := make([]Event, 0, len(tr.Events))
	for _, ev := range tr.Events {
		prim, err := serve.ParsePrimitive(ev.Prim)
		if err != nil {
			return nil, err
		}
		out = append(out, Event{
			Due:   time.Duration(ev.OffsetMs) * time.Millisecond,
			Query: serve.Query{Shape: gemm.Shape{M: ev.M, N: ev.N, K: ev.K}, Prim: prim, Imbalance: ev.Imbalance, Tenant: ev.Tenant},
		})
	}
	return out, nil
}

// warmSet is the set of keys the fleet is warmed with before query-warm's
// traffic: every key of a long schedule drawn from the same archetypes.
// Balanced keys go through cmd/serve -warm; imbalanced ones (-warm cannot
// express an imbalance) are warmed by one request each.
type warmSet struct {
	shapes []gemm.Shape   // -warm list
	prims  []hw.Primitive // -warm-prims
	extra  []serve.Query  // warmed by request
	keys   map[key]bool   // every key the run may ask for
}

func warmKeys(seed int64) (warmSet, error) {
	evs, err := warmEvents(seed, warmRate, 10*time.Second)
	if err != nil {
		return warmSet{}, err
	}
	ws := warmSet{keys: map[key]bool{}}
	seenShape := map[gemm.Shape]bool{}
	seenPrim := map[hw.Primitive]bool{}
	for _, ev := range evs {
		k := keyOf(ev.Query)
		if ws.keys[k] {
			continue
		}
		ws.keys[k] = true
		if ev.Query.Imbalance != 0 {
			ws.extra = append(ws.extra, serve.Query{Shape: k.shape, Prim: k.prim, Imbalance: ev.Query.Imbalance})
			continue
		}
		if !seenShape[k.shape] {
			seenShape[k.shape] = true
			ws.shapes = append(ws.shapes, k.shape)
		}
		if !seenPrim[k.prim] {
			seenPrim[k.prim] = true
			ws.prims = append(ws.prims, k.prim)
		}
	}
	sort.Slice(ws.shapes, func(i, j int) bool { return ws.shapes[i].String() < ws.shapes[j].String() })
	sort.Slice(ws.prims, func(i, j int) bool { return ws.prims[i] < ws.prims[j] })
	sort.Slice(ws.extra, func(i, j int) bool { return ws.extra[i].Shape.String() < ws.extra[j].Shape.String() })
	// -warm crosses shapes with prims, so every balanced key is covered
	// (plus a few the traffic never asks for).
	for _, s := range ws.shapes {
		for _, p := range ws.prims {
			ws.keys[key{prim: p, shape: s, imb: 1}] = true
		}
	}
	return ws, nil
}

// Token-count mix of query-dynamic. It is synthetic: no measured batch-size
// distribution was fitted, and a claim that rests on its shares must say
// so. Decode batches (M 1-256) draw M with weight 1/M^decodeSkew;
// chunked-prefill batches under an 8192-token budget (M 257-8192) draw with
// weight 1/(M-256)^prefillSkew. Neither is aligned to a tile size, so odd M
// lands on TileM=1 plans with many waves, and the rare large prefill M tunes
// for a fifth of a second or more. Within a run the busier replica sees more
// distinct keys than its 256-entry shape cache holds, so the run also pays
// evictions and re-tunes.
const (
	decodeShare = 0.9
	decodeSkew  = 0.4
	prefillSkew = 1.5
	decodeMax   = 256
	prefillMax  = 8192
)

// llamaAROps returns the GEMM+AllReduce shapes of Llama-3-70B at TP 4 for
// a batch of m tokens (o-proj and down-proj).
func llamaAROps(m int, decode bool) []gemm.Shape {
	model := workload.Llama3_70BInference(fleetGPUs, m)
	if decode {
		model = workload.Llama3_70BInferenceDecode(fleetGPUs, m, 4096)
	}
	var out []gemm.Shape
	for _, op := range model.Ops {
		if op.Kind == workload.GEMMComm && op.Prim == hw.AllReduce {
			out = append(out, op.Shape)
		}
	}
	return out
}

// skewed draws integers from [lo, hi] with weight 1/(x-lo+1)^s.
type skewed struct {
	lo  int
	cum []float64
}

func newSkewed(lo, hi int, s float64) skewed {
	z := skewed{lo: lo, cum: make([]float64, hi-lo+1)}
	acc := 0.0
	for r := range z.cum {
		acc += 1 / math.Pow(float64(r+1), s)
		z.cum[r] = acc
	}
	return z
}

func (z skewed) draw(rng *rand.Rand) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	return z.lo + sort.SearchFloat64s(z.cum, u)
}

// dynamicPopulation seeds the draw of query-dynamic's request population.
// It is fixed: every run offers the same keys with the same frequencies,
// and the run's seed only orders them and draws their arrival times. The
// few most expensive tunes set this workload's tail and much of its CPU,
// so a population drawn per seed measured the draw, not the code (p99
// moved tenfold across five seeds).
const dynamicPopulation = 0x5eed

// dynamicEvents is query-dynamic's schedule: rate×d requests, each a
// Llama-3-70B GEMM+AllReduce op at a skewed, unaligned token count, in a
// seeded order at seeded Poisson arrival times.
func dynamicEvents(seed int64, rate float64, d time.Duration) []Event {
	n := int(rate * d.Seconds())
	pop := rand.New(rand.NewSource(dynamicPopulation))
	dec := newSkewed(1, decodeMax, decodeSkew)
	pre := newSkewed(decodeMax+1, prefillMax, prefillSkew)
	draws := make([]Event, n)
	for i := range draws {
		decode := pop.Float64() < decodeShare
		tenant, m := "decode", 0
		if decode {
			m = dec.draw(pop)
		} else {
			tenant, m = "prefill", pre.draw(pop)
		}
		ops := llamaAROps(m, decode)
		draws[i] = Event{Query: serve.Query{Shape: ops[pop.Intn(len(ops))], Prim: hw.AllReduce, Tenant: tenant}}
	}
	// Given their count, Poisson arrivals are uniform order statistics.
	rng := rand.New(rand.NewSource(seed))
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	out := make([]Event, n)
	for i, j := range rng.Perm(n) {
		out[i] = draws[j]
		out[i].Due = dues[i]
	}
	return out
}

// dynamicWarmShapes is query-dynamic's -warm list: both ops at every
// power-of-two token count, the "pre-searched representative sizes".
func dynamicWarmShapes() []gemm.Shape {
	var out []gemm.Shape
	for m := 1; m <= prefillMax; m *= 2 {
		out = append(out, llamaAROps(m, m <= decodeMax)...)
	}
	return out
}

// sweepGrid is sweep-mixed's 240-item grid in a seeded order.
func sweepGrid(seed int64) []serve.SweepItem {
	var items []serve.SweepItem
	for _, p := range []string{"AR", "RS", "A2A"} {
		for _, m := range []int{1024, 2048, 4096, 8192, 16384} {
			for _, n := range []int{4096, 8192, 14336, 28672} {
				for _, k := range []int{2048, 4096, 7168, 14336} {
					items = append(items, serve.SweepItem{M: m, N: n, K: k, Prim: p})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// shapeList renders shapes as cmd/serve's -warm flag value.
func shapeList(shapes []gemm.Shape) string {
	parts := make([]string, len(shapes))
	for i, sh := range shapes {
		parts[i] = fmt.Sprintf("%dx%dx%d", sh.M, sh.N, sh.K)
	}
	return strings.Join(parts, ",")
}

// primList renders primitives as cmd/serve's -warm-prims flag value.
func primList(prims []hw.Primitive) string {
	parts := make([]string, len(prims))
	for i, p := range prims {
		parts[i] = p.Short()
	}
	return strings.Join(parts, ",")
}
