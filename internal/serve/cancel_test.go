package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/gemm"
	"repro/internal/hw"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// A cancelled Query waiter abandons only itself: the in-flight tune
// completes on its detached context, fills the shared cache, and the next
// query for the shape hits it — cancellation neither poisons nor evicts the
// in-flight entry, and exactly one tune ever runs.
func TestCancelledQueryWaiterKeepsFlightAndCache(t *testing.T) {
	s := testService(t)
	shape := gemm.Shape{M: 4096, N: 8192, K: 4096}
	q := Query{Shape: shape, Prim: hw.AllReduce}

	entered := make(chan struct{})
	release := make(chan struct{})
	s.tuneHook = func() error {
		close(entered)
		<-release
		return nil
	}

	initiatorDone := make(chan error, 1)
	go func() {
		_, err := s.Query(context.Background(), q)
		initiatorDone <- err
	}()
	<-entered

	// A second caller joins the flight with an already-cancelled context:
	// it must return its own ctx.Err() promptly, not block on the tune.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := s.Query(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter error = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("cancelled waiter blocked %v on an in-flight tune", waited)
	}

	close(release)
	if err := <-initiatorDone; err != nil {
		t.Fatalf("initiator failed after a waiter cancelled: %v", err)
	}

	// The flight's result must have landed in the cache untainted.
	s.tuneHook = nil
	ans, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Source != SourceCache {
		t.Fatalf("post-cancel query source = %q, want %q (flight result evicted?)", ans.Source, SourceCache)
	}
	st := s.Stats()
	if st.Tunes != 1 {
		t.Fatalf("tunes = %d, want 1 (cancellation must not re-run the search)", st.Tunes)
	}
	if st.CancelledQueries != 1 {
		t.Fatalf("cancelled_queries = %d, want 1", st.CancelledQueries)
	}
	if st.DeadlineExceeded != 0 {
		t.Fatalf("deadline_exceeded = %d, want 0 (cancel, not deadline)", st.DeadlineExceeded)
	}
}

// A query that exceeds its deadline counts in both cancelled_queries and
// deadline_exceeded.
func TestDeadlineExceededQueryCounts(t *testing.T) {
	s := testService(t)
	release := make(chan struct{})
	defer close(release)
	s.tuneHook = func() error { <-release; return nil }

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := s.Query(ctx, Query{Shape: gemm.Shape{M: 4096, N: 8192, K: 4096}, Prim: hw.AllReduce})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	st := s.Stats()
	if st.CancelledQueries != 1 || st.DeadlineExceeded != 1 {
		t.Fatalf("cancelled/deadline = %d/%d, want 1/1", st.CancelledQueries, st.DeadlineExceeded)
	}
}

// A client that disconnects mid-/sweep stream aborts the chunk's
// remaining item execution on the replica: the request context cancels,
// the chunk stops between items, and the unexecuted remainder lands in
// cancelled_sweep_items — within a bounded wall clock, not after the
// blocked tune finishes.
func TestClientDisconnectAbortsSweepChunk(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	entered := make(chan struct{})
	release := make(chan struct{})
	s.tuneHook = func() error {
		close(entered)
		<-release
		return nil
	}

	// Tuned sweep: item 0's tune blocks in the hook while the client
	// disconnects, so items 1..n-1 must never execute.
	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR"},
		{M: 8192, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 2048, Prim: "AR"},
	}
	body, err := json.Marshal(SweepRequest{SweepSpec: SweepSpec{Tune: true}, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/sweep", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		reqDone <- err
	}()
	<-entered

	// Client disconnects while item 0 is still tuning.
	start := time.Now()
	cancel()
	if err := <-reqDone; err == nil {
		t.Fatal("request succeeded after client disconnect")
	}

	// The replica observes the disconnect and abandons the chunk: every
	// item counts as cancelled (none was emitted), within a bounded wall
	// clock — crucially without waiting for the blocked tune to finish.
	waitUntil(t, "cancelled_sweep_items", func() bool {
		return s.Stats().CancelledSweepItems >= uint64(len(items))
	})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("chunk abort took %v; must be bounded by the disconnect, not the tune", elapsed)
	}
	close(release)

	st := s.Stats()
	if st.CancelledSweepItems != uint64(len(items)) {
		t.Fatalf("cancelled_sweep_items = %d, want %d", st.CancelledSweepItems, len(items))
	}
	if st.SweptItemsDES != 0 || st.SweptItemsAnalytic != 0 {
		t.Fatalf("swept %d des + %d analytic items after a disconnect, want 0",
			st.SweptItemsDES, st.SweptItemsAnalytic)
	}

	// The replica stays answerable: a fresh full sweep over the same items
	// succeeds end to end.
	s.tuneHook = nil
	results, err := collectChunk(s, SweepRequest{Items: items})
	if err != nil {
		t.Fatalf("follow-up sweep after disconnect: %v", err)
	}
	if len(results) != len(items) {
		t.Fatalf("follow-up sweep returned %d results, want %d", len(results), len(items))
	}
}

// A sweep whose context ends between items keeps the already-emitted prefix
// and reports the remainder as cancelled — the salvaged-subset contract.
func TestSweepChunkCancelMidChunkSalvagesPrefix(t *testing.T) {
	s := testService(t)
	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR"},
		{M: 8192, N: 8192, K: 4096, Prim: "AR"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	var got []SweepResult
	err := s.SweepChunk(ctx, SweepRequest{Items: items}, func(i int, res SweepResult) error {
		got = append(got, res)
		if len(got) == 1 {
			cancel() // the caller walks away after the first result
		}
		return nil
	})
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	var ce *ChunkError
	if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a ChunkError wrapping context.Canceled", err)
	}
	if ce.Index != 1 {
		t.Fatalf("failing index = %d, want 1 (first unexecuted item)", ce.Index)
	}
	if len(got) != 1 {
		t.Fatalf("%d results emitted, want the salvaged prefix of 1", len(got))
	}
	if st := s.Stats(); st.CancelledSweepItems != 2 {
		t.Fatalf("cancelled_sweep_items = %d, want 2", st.CancelledSweepItems)
	}
}
