package main

import (
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	xs := ramp(100)
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{{0.5, 50, 50}, {0.99, 99, 1}, {1, 100, 0}, {0.01, 1, 99}} {
		v, beyond := quantile(xs, c.p)
		if v != c.want || beyond != c.beyond {
			t.Errorf("quantile(1..100, %v) = %v with %d beyond, want %v with %d", c.p, v, beyond, c.want, c.beyond)
		}
	}
}

// A reported p99 needs at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	if _, err := tailQuantile(ramp(999), 0.99); err == nil {
		t.Error("p99 of 999 samples (9 beyond) was accepted")
	}
	v, err := tailQuantile(ramp(1100), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if _, beyond := quantile(ramp(1100), 0.99); beyond < minTail || v != 1089 {
		t.Errorf("p99 of 1100 samples = %v with %d beyond", v, beyond)
	}
}

// The open-loop workloads are sized so that their p99 holds under the tail
// rule at the benchmark's run length, on any seed.
func TestSchedulesMeetTailRule(t *testing.T) {
	const runLength = 30 * time.Second
	for seed := int64(1); seed <= 10; seed++ {
		if n := len(dynamicEvents(seed, dynamicRate, runLength)); n < 100*(minTail+1) {
			t.Errorf("query-dynamic seed %d: %d requests, too few for a p99", seed, n)
		}
		evs, err := warmEvents(seed, warmLadder[0], runLength/4)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(evs); n < 100*(minTail+1) {
			t.Errorf("query-warm ladder step seed %d: %d requests, too few for a p99", seed, n)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{start: at(0), end: at(100)}
	children := []span{
		{start: at(10), end: at(30)},
		{start: at(20), end: at(40)},   // overlaps the first
		{start: at(90), end: at(120)},  // runs past the parent
		{start: at(200), end: at(210)}, // outside
	}
	if got := selfTime(parent, children); got != 60*time.Millisecond {
		t.Errorf("self time = %v, want 60ms", got)
	}
}

// TestCacheLatencies checks that only the shape cache's answers count
// towards query-dynamic's p50_ms.
func TestCacheLatencies(t *testing.T) {
	samples := []sample{
		{status: 200, body: []byte(`{"source":"cache","waves":4}`)},
		{status: 200, body: []byte(`{"source":"tuned","waves":4}`)},
		{status: 500, body: []byte(`{"source":"cache"}`)},
		{status: 200, body: []byte(`{"source":"cache","waves":8}`)},
	}
	got := cacheLatencies(samples, []float64{1, 2, 3, 4})
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("cacheLatencies = %v, want [1 4]", got)
	}
}

// windowedP50 takes the lower quartile of the window medians, and refuses
// too few samples rather than report a median of a handful.
func TestWindowedP50(t *testing.T) {
	xs := make([]float64, 0, 2000)
	for w := 0; w < 20; w++ {
		for i := 0; i < 100; i++ {
			xs = append(xs, float64(20-w))
		}
	}
	if v, err := windowedP50(xs); err != nil || v != 5 {
		t.Errorf("windowedP50 of windows 20..1 = %v (%v), want 5", v, err)
	}
	if _, err := windowedP50(xs[:p50WindowMin-1]); err == nil {
		t.Error("windowedP50 accepted too few samples")
	}
}
