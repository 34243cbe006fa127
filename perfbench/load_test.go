package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
)

// A target that stalls every connection for a while must show up in the
// latency of every request due during the stall — timed from its due
// time — and in the backlog, not in the generator's own lateness.
func TestOpenLoopCountsStallBacklog(t *testing.T) {
	const (
		rate    = 1000
		n       = 400
		trigger = 100 // the request that stalls the target
		stall   = 150 * time.Millisecond
	)
	var mu sync.Mutex
	var until time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if r.URL.Query().Get("m") == "100" && until.IsZero() {
			until = time.Now().Add(stall)
		}
		wait := time.Until(until)
		mu.Unlock()
		if wait > 0 {
			time.Sleep(wait)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	events := make([]Event, n)
	for i := range events {
		events[i] = Event{
			Due:   time.Duration(i) * time.Second / rate,
			Query: serve.Query{Shape: gemm.Shape{M: i, N: 1, K: 1}, Prim: hw.AllReduce},
		}
	}
	samples := openLoop(context.Background(), srv.URL, events, 2, nil)

	mu.Lock()
	end := until
	mu.Unlock()
	if end.IsZero() {
		t.Fatal("the stalling request never reached the target")
	}
	if got := samples[trigger].latency(); got < stall {
		t.Errorf("stalled request latency %v, want >= %v", got, stall)
	}
	// A request due 100ms into the stall waited for the rest of it even
	// though it was sent only when a connection freed up.
	const into = 100
	if got, want := samples[trigger+into].latency(), stall-into*time.Millisecond-5*time.Millisecond; got < want {
		t.Errorf("request due %dms into the stall: latency %v, want >= %v", into, got, want)
	}
	backlog := 0
	lags := make([]float64, n)
	for i, s := range samples {
		if s.failed() {
			t.Fatalf("request %d failed: %v %d", i, s.err, s.status)
		}
		backlog = max(backlog, s.backlog)
		lags[i] = float64(s.lag()) / float64(time.Millisecond)
	}
	if backlog < 100 {
		t.Errorf("max backlog %d, want >= 100 (%v of requests at %d/s)", backlog, stall, rate)
	}
	sort.Float64s(lags)
	if p50, _ := quantile(lags, 0.5); p50 > 2 {
		t.Errorf("generator lag p50 %.3fms: the stall was charged to the generator", p50)
	}
}
