package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/serve"
)

// Stream must emit each item as its chunk completes, not buffer the grid:
// with one item per chunk against a scripted single-shard fleet, the k-th
// emission may only happen after exactly k+1 dispatches — if the
// coordinator collected results before emitting, every emission would
// observe the full dispatch count.
func TestCoordinatorStreamEmitsIncrementally(t *testing.T) {
	var dispatches atomic.Int64
	stub := &stubClient{
		sweep: func(req serve.SweepRequest) ([]serve.SweepResult, error) {
			dispatches.Add(1)
			out := make([]serve.SweepResult, len(req.Items))
			for i, it := range req.Items {
				out[i] = serve.SweepResult{Fidelity: it.Fidelity, Result: &core.Result{}}
			}
			return out, nil
		},
	}
	r, err := NewRouter([]Client{stub})
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(r)
	co.Spec.Chunk = 1
	items := coordItems()
	emitted := 0
	err = co.Stream(context.Background(), items, func(i int, res SweepResult) error {
		if i != emitted {
			t.Fatalf("emission %d carries index %d; single-shard chunks stream in order", emitted, i)
		}
		if got := dispatches.Load(); got != int64(emitted+1) {
			t.Fatalf("emission %d observed %d dispatches, want %d — the stream is buffering chunks",
				emitted, got, emitted+1)
		}
		emitted++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != len(items) {
		t.Fatalf("%d emissions for %d items", emitted, len(items))
	}
}

// A sink error aborts the stream: no further emissions, and the error
// surfaces to the caller.
func TestCoordinatorStreamSinkErrorAborts(t *testing.T) {
	r, _, _ := testFleet(t, 1)
	co := NewCoordinator(r)
	co.Spec.Chunk = 1
	calls := 0
	err := co.Stream(context.Background(), coordItems(), func(int, SweepResult) error {
		calls++
		return io.ErrClosedPipe
	})
	if err == nil {
		t.Fatal("sink error did not abort the stream")
	}
	if calls != 1 {
		t.Fatalf("sink called %d times after aborting on the first emission", calls)
	}
}

// postStream posts a plain sweep request (no Accept header, no stream
// field) to a router front-end and returns the decoded frame sequence.
func postStream(t *testing.T, url string, req serve.SweepRequest) []routedFrame {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != serve.ContentTypeNDJSON {
		t.Fatalf("Content-Type = %q, want %q", ct, serve.ContentTypeNDJSON)
	}
	dec := json.NewDecoder(resp.Body)
	var frames []routedFrame
	for dec.More() {
		var fr routedFrame
		if err := dec.Decode(&fr); err != nil {
			t.Fatalf("decoding frame %d: %v", len(frames), err)
		}
		frames = append(frames, fr)
	}
	return frames
}

// streamResults asserts the frame sequence is result frames covering each
// item exactly once plus a terminal done frame, and scatters them into
// global order.
func streamResults(t *testing.T, frames []routedFrame, nItems int) []SweepResult {
	t.Helper()
	if len(frames) != nItems+1 {
		t.Fatalf("%d frames for %d items, want one per item plus done", len(frames), nItems)
	}
	last := frames[nItems]
	if last.Frame != serve.FrameDone || last.Count != nItems {
		t.Fatalf("terminal frame = %+v, want done counting %d", last, nItems)
	}
	results := make([]SweepResult, nItems)
	seen := make([]bool, nItems)
	for _, fr := range frames[:nItems] {
		if fr.Frame != serve.FrameResult || fr.Result == nil {
			t.Fatalf("frame %+v, want a result frame", fr)
		}
		if fr.Index < 0 || fr.Index >= nItems || seen[fr.Index] {
			t.Fatalf("frame index %d out of range or duplicated", fr.Index)
		}
		seen[fr.Index] = true
		if fr.Fidelity != fr.Result.Fidelity {
			t.Fatalf("frame fidelity %q disagrees with its result's %q", fr.Fidelity, fr.Result.Fidelity)
		}
		results[fr.Index] = *fr.Result
	}
	return results
}

// The full elastic-ownership story through the router's /sweep proxy:
// a replica that dies mid-sweep (at its first DES refine chunk of a mixed
// sweep) fails over without corrupting the stream — per-item fidelity
// labels and global order survive, byte-identical to single-process
// engine.MixedBatch — then ages past the eviction window so its cells
// rebalance to the survivors (owned directly, no failover hop), and on
// restart the prober hands exactly those cells back.
func TestRouterStreamSweepAcrossKillRebalanceAndHandback(t *testing.T) {
	const n = 3
	items := coordItems()
	refJSON, refined := coordMixedReference(t, items)

	// The victim must own both tiers: an analytic keeper (proving it
	// participated before dying) and at least one refined item (work that
	// must fail over after it dies).
	part := NewPartitioner(n)
	isRefined := make(map[int]bool)
	for _, gi := range refined {
		isRefined[gi] = true
	}
	keeperOwned := make([]int, n)
	refinedOwned := make([]int, n)
	for i, it := range items {
		o := part.Owner(it.Shape())
		if isRefined[i] {
			refinedOwned[o]++
		} else {
			keeperOwned[o]++
		}
	}
	victim := -1
	for k := 0; k < n; k++ {
		if keeperOwned[k] > 0 && refinedOwned[k] > 0 {
			victim = k
			break
		}
	}
	if victim < 0 {
		t.Fatal("no shard owns items in both tiers; extend the grid")
	}

	// The fleet: the victim's handler simulates a crash at its first
	// DES-stamped chunk — from then until "restart" every request
	// (chunks and /healthz probes alike) aborts mid-response, the
	// transport failure a died process produces.
	var down atomic.Bool
	var die sync.Once
	servers := make([]*httptest.Server, n)
	clients := make([]Client, n)
	httpClient := &http.Client{Timeout: 5 * time.Second}
	for k := 0; k < n; k++ {
		a := Assignment{Index: k, Count: n}
		svc, err := serve.New(serve.Config{
			Plat:           hw.RTX4090PCIe(),
			NGPUs:          2,
			CandidateLimit: 64,
			Owns:           a.Owns,
			Shard:          a.String(),
			Curves:         sharedCurves(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		inner := serve.Handler(svc)
		handler := inner
		if k == victim {
			handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
				if req.Method == http.MethodPost && req.URL.Path == "/sweep" {
					body, err := io.ReadAll(req.Body)
					if err != nil {
						panic(http.ErrAbortHandler)
					}
					var sr serve.SweepRequest
					if json.Unmarshal(body, &sr) == nil && len(sr.Items) > 0 &&
						sr.Items[0].Fidelity == serve.FidelityDES {
						die.Do(func() { down.Store(true) })
					}
					req.Body = io.NopCloser(bytes.NewReader(body))
				}
				if down.Load() {
					panic(http.ErrAbortHandler)
				}
				inner.ServeHTTP(w, req)
			})
		}
		servers[k] = httptest.NewServer(handler)
		t.Cleanup(servers[k].Close)
		clients[k] = &HTTPClient{Base: servers[k].URL, HTTP: httpClient}
	}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	r.Health().SetCooldown(150 * time.Millisecond)
	r.Health().SetEvictAfter(1)
	stopProber := r.StartProber(context.Background(), 10*time.Millisecond)
	defer stopProber()
	front := httptest.NewServer(r.Handler())
	defer front.Close()

	// Sweep A: mixed, one item per chunk. The victim answers its analytic chunks, then dies at its first
	// refine chunk; its refined items fail over.
	frames := postStream(t, front.URL, serve.SweepRequest{
		SweepSpec: serve.SweepSpec{Fidelity: serve.FidelityMixed, Chunk: 1},
		Items:     items,
	})
	results := streamResults(t, frames, len(items))
	if !bytes.Equal(mergedJSON(t, results), refJSON) {
		t.Fatal("streamed mixed sweep diverges from single-process engine.MixedBatch across the kill")
	}
	checkMixedLabels(t, results, refined)
	sawVictimKeeper := false
	for i, res := range results {
		if !isRefined[i] && res.Replica == victim {
			sawVictimKeeper = true
		}
		if isRefined[i] && part.Owner(items[i].Shape()) == victim && res.Replica == victim {
			t.Fatalf("refined item %d answered by the victim after it died", i)
		}
	}
	if !sawVictimKeeper {
		t.Fatal("victim answered no analytic keeper; the kill preceded its participation")
	}
	if st := r.Stats(context.Background()); st.Failovers == 0 {
		t.Fatal("router stats recorded no failover for the victim's refine chunks")
	}

	// The victim stays dead past the eviction window: its cells rebalance.
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats(context.Background()).Evictions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim not evicted within 5s of dying (window = 1×150ms)")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := r.Stats(context.Background()); !st.PerShard[victim].Evicted {
		t.Fatal("stats do not flag the victim evicted")
	}

	// Sweep B: victim-owned items while the victim is evicted. Survivors
	// own them outright — dispatch goes straight there, no failover hop.
	var victimItems []serve.SweepItem
	for _, it := range items {
		if part.Owner(it.Shape()) == victim {
			victimItems = append(victimItems, it)
		}
	}
	failoversBefore := r.Stats(context.Background()).Failovers
	resultsB := streamResults(t,
		postStream(t, front.URL, serve.SweepRequest{Items: victimItems}),
		len(victimItems))
	for i, res := range resultsB {
		if res.Owner == victim || res.Replica == victim {
			t.Fatalf("evicted victim still involved in item %d: owner %d, replica %d", i, res.Owner, res.Replica)
		}
		if res.Replica != res.Owner {
			t.Fatalf("item %d took a failover hop (%d -> %d) though ownership rebalanced", i, res.Owner, res.Replica)
		}
	}
	if got := r.Stats(context.Background()).Failovers; got != failoversBefore {
		t.Fatalf("rebalanced sweep burned %d failovers; survivors own the cells directly", got-failoversBefore)
	}

	// Restart: the prober re-admits the victim and hands its cells back.
	down.Store(false)
	deadline = time.Now().Add(10 * time.Second)
	for r.Stats(context.Background()).Handbacks == 0 {
		if time.Now().After(deadline) {
			t.Fatal("victim not handed its cells back within 10s of restarting")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Sweep C: the same items land back on the victim, and the answers are
	// byte-identical to sweep B's — rebalancing moved ownership, never the
	// results.
	resultsC := streamResults(t,
		postStream(t, front.URL, serve.SweepRequest{Items: victimItems}),
		len(victimItems))
	for i, res := range resultsC {
		if res.Owner != victim || res.Replica != victim {
			t.Fatalf("item %d after hand-back: owner %d, replica %d, want the victim %d both", i, res.Owner, res.Replica, victim)
		}
	}
	if !bytes.Equal(mergedJSON(t, resultsB), mergedJSON(t, resultsC)) {
		t.Fatal("results diverge between the rebalanced and handed-back sweeps")
	}
}

// frameLine renders one /sweep frame as its NDJSON line.
func frameLine(t testing.TB, fr serve.SweepFrame) string {
	t.Helper()
	b, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

// HTTPClient.Sweep over a stub replica: result frames reach the sink as
// they arrive, error frames rebuild the ring's error taxonomy, a stream cut
// off before its terminal frame is a transport failure, malformed frames
// fail the chunk, and a non-200 reply (a request rejected before anything
// ran) classifies by status class.
func TestHTTPClientSweepFrames(t *testing.T) {
	idx := 2
	results := frameLine(t, serve.SweepFrame{Frame: serve.FrameResult, Index: 0, Result: &serve.SweepResult{Shape: "2048x8192x4096"}}) +
		frameLine(t, serve.SweepFrame{Frame: serve.FrameResult, Index: 1, Result: &serve.SweepResult{Shape: "4096x8192x4096"}})
	envelope := func(msg string) string {
		return `{"error":{"message":"` + msg + `","retryable":false}}`
	}
	for _, tc := range []struct {
		name      string
		status    int
		body      string
		delivered int
		check     func(t *testing.T, err error)
	}{
		{
			name:      "done",
			status:    http.StatusOK,
			body:      results + frameLine(t, serve.SweepFrame{Frame: serve.FrameDone, Count: 2}),
			delivered: 2,
			check: func(t *testing.T, err error) {
				if err != nil {
					t.Fatalf("err = %v, want nil after a done frame", err)
				}
			},
		},
		{
			name:   "retryable error frame",
			status: http.StatusOK,
			body: results + frameLine(t, serve.SweepFrame{Frame: serve.FrameError, Salvaged: 2,
				Error: &serve.ErrorBody{Message: "engine crashed mid-chunk", Retryable: true, Index: &idx}}),
			delivered: 2,
			check: func(t *testing.T, err error) {
				var ce *serve.ChunkError
				if !errors.As(err, &ce) || ce.Index != 2 {
					t.Fatalf("err = %v, want a ChunkError at index 2", err)
				}
				if !retryable(err) || !replicaAnswered(err) {
					t.Fatalf("err = %v: retryable %v, answered %v; want both", err, retryable(err), replicaAnswered(err))
				}
			},
		},
		{
			name:   "non-retryable error frame",
			status: http.StatusOK,
			body: frameLine(t, serve.SweepFrame{Frame: serve.FrameError,
				Error: &serve.ErrorBody{Message: "bad item", Index: new(int)}}),
			check: func(t *testing.T, err error) {
				var qe *QueryError
				if !errors.As(err, &qe) || retryable(err) {
					t.Fatalf("err = %v, want a non-retryable QueryError", err)
				}
			},
		},
		{
			name:      "truncated",
			status:    http.StatusOK,
			body:      results,
			delivered: 2,
			check: func(t *testing.T, err error) {
				if err == nil || replicaAnswered(err) {
					t.Fatalf("err = %v, want a transport failure that does not prove liveness", err)
				}
			},
		},
		{
			name:   "unknown frame kind",
			status: http.StatusOK,
			body:   `{"frame":"bogus"}` + "\n",
			check: func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), "unknown frame") {
					t.Fatalf("err = %v, want an unknown-frame error", err)
				}
			},
		},
		{
			name:   "result frame without a result",
			status: http.StatusOK,
			body:   `{"frame":"result","index":0}` + "\n",
			check: func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), "without a result") {
					t.Fatalf("err = %v, want a missing-result error", err)
				}
			},
		},
		{
			name:   "400",
			status: http.StatusBadRequest,
			body:   envelope("sweep request has no items"),
			check: func(t *testing.T, err error) {
				var qe *QueryError
				if !errors.As(err, &qe) || qe.Status != http.StatusBadRequest || !strings.Contains(err.Error(), "no items") {
					t.Fatalf("err = %v, want a QueryError with status 400 naming the cause", err)
				}
			},
		},
		{
			name:   "413",
			status: http.StatusRequestEntityTooLarge,
			body:   envelope("sweep request body exceeds 1048576 bytes"),
			check: func(t *testing.T, err error) {
				var qe *QueryError
				if !errors.As(err, &qe) || qe.Status != http.StatusRequestEntityTooLarge {
					t.Fatalf("err = %v, want a QueryError with status 413", err)
				}
			},
		},
		{
			name:   "503",
			status: http.StatusServiceUnavailable,
			body:   "not an envelope",
			check: func(t *testing.T, err error) {
				var re *ReplyError
				if !errors.As(err, &re) || re.Status != http.StatusServiceUnavailable || !retryable(err) {
					t.Fatalf("err = %v, want a retryable ReplyError with status 503", err)
				}
				if !strings.Contains(err.Error(), "503") {
					t.Fatalf("err = %v does not fall back to the status for a garbage body", err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.WriteHeader(tc.status)
				_, _ = io.WriteString(w, tc.body)
			}))
			defer srv.Close()
			got, err := collectClient(&HTTPClient{Base: srv.URL}, serve.SweepRequest{Items: make([]serve.SweepItem, 4)})
			if len(got) != tc.delivered {
				t.Fatalf("%d results delivered, want %d", len(got), tc.delivered)
			}
			tc.check(t, err)
		})
	}
}

// FuzzSweepFrames drives the one /sweep reply decoder with arbitrary
// bytes. It must never panic, and it may return nil only once it has
// decoded a done frame — after exactly the result frames that precede the
// first one, each delivered once, in order.
func FuzzSweepFrames(f *testing.F) {
	result := frameLine(f, serve.SweepFrame{Frame: serve.FrameResult, Index: 1, Fidelity: serve.FidelityDES,
		Result: &serve.SweepResult{Shape: "2048x8192x4096", Fidelity: serve.FidelityDES, Result: &core.Result{}}})
	idx := 3
	f.Add([]byte(result + result + frameLine(f, serve.SweepFrame{Frame: serve.FrameDone, Count: 2})))
	f.Add([]byte(result + result[:len(result)/2]))
	f.Add([]byte(result + frameLine(f, serve.SweepFrame{Frame: serve.FrameError, Salvaged: 1,
		Error: &serve.ErrorBody{Message: "boom", Retryable: true, Index: &idx}})))
	f.Add([]byte("\x00{]garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var delivered []int
		err := (&HTTPClient{Base: "fuzz"}).sweepFrames(bytes.NewReader(data), func(i int, _ serve.SweepResult) error {
			delivered = append(delivered, i)
			return nil
		})
		if err != nil {
			return
		}
		// Independently find the first done frame; every frame before it
		// must be a result frame the sink received.
		dec := json.NewDecoder(bytes.NewReader(data))
		var want []int
		for {
			var fr serve.SweepFrame
			if dec.Decode(&fr) != nil {
				t.Fatalf("sweepFrames returned nil on a stream without a done frame: %q", data)
			}
			if fr.Frame == serve.FrameDone {
				break
			}
			if fr.Frame != serve.FrameResult || fr.Result == nil {
				t.Fatalf("sweepFrames returned nil past a %q frame: %q", fr.Frame, data)
			}
			want = append(want, fr.Index)
		}
		if !slices.Equal(delivered, want) {
			t.Fatalf("delivered indices %v, want %v", delivered, want)
		}
	})
}
