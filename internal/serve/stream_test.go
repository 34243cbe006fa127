package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/hw"
)

// decodeFrames drains a /sweep reply into its frame sequence, asserting
// the status and media type every decoded request gets.
func decodeFrames(t *testing.T, resp *http.Response) []SweepFrame {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d; a /sweep stream commits 200 before executing", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeNDJSON {
		t.Fatalf("Content-Type = %q, want %q", ct, ContentTypeNDJSON)
	}
	dec := json.NewDecoder(resp.Body)
	var frames []SweepFrame
	for dec.More() {
		var fr SweepFrame
		if err := dec.Decode(&fr); err != nil {
			t.Fatalf("decoding frame %d: %v", len(frames), err)
		}
		frames = append(frames, fr)
	}
	return frames
}

// streamResults asserts a replica's frame sequence is one result frame per
// item, indices ascending (flat and mixed chunks both release in order),
// each labeled like its result, then a done frame counting them.
func streamResults(t *testing.T, frames []SweepFrame, nItems int) []SweepResult {
	t.Helper()
	if len(frames) != nItems+1 {
		t.Fatalf("%d frames for %d items, want one per item plus done", len(frames), nItems)
	}
	if done := frames[nItems]; done.Frame != FrameDone || done.Count != nItems {
		t.Fatalf("terminal frame = %+v, want done counting %d", done, nItems)
	}
	results := make([]SweepResult, nItems)
	for i, fr := range frames[:nItems] {
		if fr.Frame != FrameResult || fr.Result == nil {
			t.Fatalf("frame %d = %+v, want a result frame", i, fr)
		}
		if fr.Index != i {
			t.Fatalf("frame %d carries index %d; a replica streams in ascending order", i, fr.Index)
		}
		if fr.Fidelity != fr.Result.Fidelity {
			t.Fatalf("frame %d fidelity %q disagrees with its result's %q", i, fr.Fidelity, fr.Result.Fidelity)
		}
		results[i] = *fr.Result
	}
	return results
}

// collectChunk runs SweepChunk in process into a slice: the reference the
// HTTP stream is compared against. A failed chunk returns its emitted
// prefix with the error.
func collectChunk(s *Service, req SweepRequest) ([]SweepResult, error) {
	var out []SweepResult
	err := s.SweepChunk(context.Background(), req, func(_ int, res SweepResult) error {
		out = append(out, res)
		return nil
	})
	return out, err
}

// errorFrame asserts the stream ends in an error frame after exactly
// salvaged result frames, and returns the frame.
func errorFrame(t *testing.T, frames []SweepFrame, salvaged int) SweepFrame {
	t.Helper()
	if len(frames) != salvaged+1 {
		t.Fatalf("%d frames, want %d salvaged results plus the error frame", len(frames), salvaged)
	}
	ef := frames[salvaged]
	if ef.Frame != FrameError || ef.Error == nil {
		t.Fatalf("terminal frame = %+v, want an error frame", ef)
	}
	if ef.Salvaged != salvaged {
		t.Fatalf("salvaged = %d, want %d", ef.Salvaged, salvaged)
	}
	return ef
}

// The stream: one result frame per item, indices ascending, each labeled
// with its fidelity, then a terminal done frame counting them — and the
// streamed results are byte-identical to the same chunk run in process.
func TestHandlerSweepStreamsV2Frames(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR"},
		{M: 8192, N: 8192, K: 4096, Prim: "AR"},
	}
	results := streamResults(t, decodeFrames(t, postSweep(t, srv.URL, SweepRequest{Items: items})), len(items))
	for i, res := range results {
		if res.Fidelity != FidelityDES {
			t.Fatalf("result %d fidelity = %q, want %q", i, res.Fidelity, FidelityDES)
		}
	}

	ref, err := collectChunk(s, SweepRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed results diverge from the in-process SweepChunk")
	}

	// The wire plan omits the launch permutation, and loses nothing by it:
	// gemm.NewPlan rebuilds, from the decoded shape and config, exactly the
	// plan the engine executed.
	for i, res := range results {
		if res.Result.Plan.Order != nil || res.Result.Plan.Pos != nil {
			t.Fatalf("item %d: decoded plan carries a launch permutation", i)
		}
		rebuilt, err := gemm.NewPlan(res.Result.Plan.Shape, res.Result.Plan.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rebuilt, ref[i].Result.Plan) {
			t.Fatalf("item %d: plan rebuilt from the wire differs from the executed plan", i)
		}
	}
}

// A result frame carries its plan's shape, config and tile grid but not the
// launch permutation, so the frame does not grow with the tile count: the
// large shape has 112 times the small one's tiles, yet its frame stays
// within a small constant of the small one's. The sweep is tuned, so both
// partitions have a handful of groups; an untuned run reports one
// GroupTiming per wave, which is result content that does grow with shape.
func TestHandlerSweepFrameSizeIndependentOfTileCount(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 1024, N: 4096, K: 2048, Prim: "AR"},
		{M: 16384, N: 28672, K: 14336, Prim: "AR"},
	}
	resp := postSweep(t, srv.URL, SweepRequest{SweepSpec: SweepSpec{Tune: true}, Items: items})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	sizes := make([]int, len(items))
	for i := range items {
		line, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatalf("reading frame %d: %v", i, err)
		}
		for _, key := range []string{`"Order"`, `"Pos"`} {
			if bytes.Contains(line, []byte(key)) {
				t.Fatalf("frame %d carries %s", i, key)
			}
		}
		var fr SweepFrame
		if err := json.Unmarshal(line, &fr); err != nil || fr.Frame != FrameResult || fr.Index != i {
			t.Fatalf("frame %d = %+v (%v), want result frame %d", i, fr, err, i)
		}
		sizes[i] = len(line)
	}
	const slack = 4 << 10
	if sizes[1] > sizes[0]+slack {
		t.Fatalf("large-shape frame is %d bytes, small-shape frame %d: want within %d bytes", sizes[1], sizes[0], slack)
	}
}

// A plain POST — no Accept header, no "stream" field — gets the NDJSON
// frame stream, the only /sweep reply there is, and its results are
// byte-identical to single-process engine.Batch for an untuned grid and to
// engine.MixedBatch for a mixed-fidelity one.
func TestHandlerSweepPlainPostStreams(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	var items []string
	var runs []core.Options
	for _, m := range []int{1024, 2048, 4096, 8192} {
		for _, k := range []int{4096, 8192} {
			items = append(items, fmt.Sprintf(`{"m":%d,"n":8192,"k":%d,"prim":"AR"}`, m, k))
			runs = append(runs, core.Options{Plat: s.cfg.Plat, NGPUs: s.cfg.NGPUs, Shape: gemm.Shape{M: m, N: 8192, K: k}, Prim: hw.AllReduce})
		}
	}
	eng := engine.New(0, 0)
	batch, err := eng.Batch(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	mixed, _, err := eng.MixedBatch(context.Background(), runs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, spec string
		ref        []*core.Result
	}{
		{"untuned", ``, batch},
		{"mixed", `"fidelity":"mixed",`, mixed},
	} {
		body := `{` + tc.spec + `"items":[` + strings.Join(items, ",") + `]}`
		resp, err := http.Post(srv.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		results := streamResults(t, decodeFrames(t, resp), len(runs))
		got := make([]*core.Result, len(results))
		for i, res := range results {
			got[i] = res.Result
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(tc.ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s: plain-POST stream diverges from the single-process engine", tc.name)
		}
	}
}

// A chunk failing mid-stream has already committed its 200: the failure
// arrives as a terminal error frame carrying the salvage count, the failing
// item's index, and the retryable classification — here an internal tuner
// failure (5xx-equivalent, retryable) after one item completed.
func TestHandlerSweepStreamErrorFrameCarriesSalvage(t *testing.T) {
	s := testService(t)
	var tunes atomic.Int64
	s.tuneHook = func() error {
		if tunes.Add(1) >= 2 {
			return errors.New("injected crash on the second tune")
		}
		return nil
	}
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR"}, // distinct shape: second tune fails
	}
	frames := decodeFrames(t, postSweep(t, srv.URL, SweepRequest{SweepSpec: SweepSpec{Tune: true}, Items: items}))
	ef := errorFrame(t, frames, 1)
	if frames[0].Frame != FrameResult || frames[0].Index != 0 {
		t.Fatalf("frame 0 = %+v, want item 0's salvaged result", frames[0])
	}
	if !ef.Error.Retryable {
		t.Fatal("internal failure not marked retryable in the error frame")
	}
	if ef.Error.Index == nil || *ef.Error.Index != 1 {
		t.Fatalf("error frame index = %v, want 1", ef.Error.Index)
	}
	if !strings.Contains(ef.Error.Message, "injected crash") {
		t.Fatalf("error frame %q does not name the cause", ef.Error.Message)
	}
}

// Deterministic rejections keep their classification on the stream: a bad
// item yields an error frame with retryable=false, so a ring client rebuilds
// the same non-retryable QueryError a 4xx status would carry.
func TestHandlerSweepStreamErrorFrameNonRetryable(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 0, N: 8192, K: 4096, Prim: "AR"}, // deterministic rejection
	}
	ef := errorFrame(t, decodeFrames(t, postSweep(t, srv.URL, SweepRequest{Items: items})), 1)
	if ef.Error.Retryable {
		t.Fatal("deterministic rejection marked retryable on the stream")
	}
	if ef.Error.Index == nil || *ef.Error.Index != 1 {
		t.Fatalf("error frame index = %v, want 1", ef.Error.Index)
	}
}

// A mixed-fidelity chunk streams too: both tiers' frames arrive (analytic
// keepers and DES winners), every frame labeled, and the merged stream is
// byte-identical to the in-process mixed chunk.
func TestHandlerSweepStreamsMixedFidelity(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	var items []SweepItem
	for _, m := range []int{1024, 2048, 4096, 8192} {
		for _, k := range []int{4096, 8192} {
			items = append(items, SweepItem{M: m, N: 8192, K: k, Prim: "AR"})
		}
	}
	req := SweepRequest{SweepSpec: SweepSpec{Fidelity: FidelityMixed}, Items: items}
	results := streamResults(t, decodeFrames(t, postSweep(t, srv.URL, req)), len(items))
	nDES, nAnalytic := 0, 0
	for i, res := range results {
		switch res.Fidelity {
		case FidelityDES:
			nDES++
		case FidelityAnalytic:
			nAnalytic++
		default:
			t.Fatalf("result %d labeled %q", i, res.Fidelity)
		}
	}
	if nDES == 0 || nAnalytic == 0 {
		t.Fatalf("mixed stream carried %d des and %d analytic frames; both tiers must appear", nDES, nAnalytic)
	}
	ref, err := collectChunk(s, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mixed stream diverges from the in-process SweepChunk")
	}
}
