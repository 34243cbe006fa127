package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/hw"
)

// Per-item fidelity must survive the HTTP round-trip: a chunk can carry both
// tiers at once (as a mixed-fidelity coordinator dispatches them), every
// result echoes the backend that produced it, and the /stats counters split
// the swept items by fidelity.
func TestHandlerSweepPerItemFidelity(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR", Fidelity: FidelityAnalytic},
		{M: 4096, N: 8192, K: 8192, Prim: "AR", Fidelity: FidelityDES},
		{M: 4096, N: 8192, K: 4096, Prim: "AR"}, // "" inherits the request default (DES)
	}
	results := streamResults(t, decodeFrames(t, postSweep(t, srv.URL, SweepRequest{Items: items})), len(items))
	wantFid := []string{FidelityAnalytic, FidelityDES, FidelityDES}
	for i, res := range results {
		if res.Fidelity != wantFid[i] || string(res.Result.Fidelity) != wantFid[i] {
			t.Fatalf("result %d labeled (%q, %q), want %q", i, res.Fidelity, res.Result.Fidelity, wantFid[i])
		}
		if res.Result.Latency <= 0 {
			t.Fatalf("result %d has no latency", i)
		}
	}
	st := s.Stats()
	if st.SweptItemsAnalytic != 1 || st.SweptItemsDES != 2 {
		t.Fatalf("swept split = (%d analytic, %d des), want (1, 2)", st.SweptItemsAnalytic, st.SweptItemsDES)
	}

	// A request-level default applies to unlabeled items only.
	results2 := streamResults(t, decodeFrames(t, postSweep(t, srv.URL, SweepRequest{SweepSpec: SweepSpec{Fidelity: FidelityAnalytic}, Items: []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR", Fidelity: FidelityDES},
	}})), 2)
	if results2[0].Fidelity != FidelityAnalytic || results2[1].Fidelity != FidelityDES {
		t.Fatalf("request-default labels = (%q, %q), want (analytic, des)", results2[0].Fidelity, results2[1].Fidelity)
	}
}

// A request-level mixed sweep runs the whole posted grid analytically, ranks
// per cell, confirms the top-k at DES, and splices — one replica answering
// the same wire request a router-proxied fleet would, byte-identically to
// the in-process SweepChunk.
func TestHandlerSweepMixed(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	items := []SweepItem{
		{M: 2048, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 4096, Prim: "AR"},
		{M: 4096, N: 8192, K: 8192, Prim: "AR"},
		{M: 8192, N: 8192, K: 4096, Prim: "AR"},
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
		t.Fatalf("mixed sweep produced %d des and %d analytic results; both tiers must appear", nDES, nAnalytic)
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
		t.Fatal("mixed sweep diverges from the in-process SweepChunk after the HTTP round-trip")
	}
}

// A replica's own mixed /sweep is the engine's mixed policy over the wire:
// the streamed results are byte-identical to engine.MixedBatch on the same
// grid, and the DES-labeled items are exactly its refined set.
func TestHandlerSweepMixedMatchesMixedBatch(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	var items []SweepItem
	var runs []core.Options
	for _, m := range []int{1024, 2048, 4096, 8192} {
		for _, k := range []int{4096, 8192} {
			for _, p := range []hw.Primitive{hw.AllReduce, hw.AllToAll} {
				imb := 0.0
				if p == hw.AllToAll {
					imb = 1.2
				}
				items = append(items, SweepItem{M: m, N: 8192, K: k, Prim: p.Short(), Imbalance: imb})
				runs = append(runs, core.Options{Plat: s.cfg.Plat, NGPUs: s.cfg.NGPUs, Shape: gemm.Shape{M: m, N: 8192, K: k}, Prim: p, Imbalance: imb})
			}
		}
	}
	ref, refined, err := engine.New(0, 0).MixedBatch(context.Background(), runs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(refined) == 0 || len(refined) == len(runs) {
		t.Fatalf("%d of %d runs refined; the grid must exercise both tiers", len(refined), len(runs))
	}
	want, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}
	results := streamResults(t, decodeFrames(t, postSweep(t, srv.URL, SweepRequest{SweepSpec: SweepSpec{Fidelity: FidelityMixed}, Items: items})), len(items))
	got := make([]*core.Result, len(results))
	var des []int
	for i, res := range results {
		got[i] = res.Result
		if res.Fidelity == FidelityDES {
			des = append(des, i)
		}
	}
	if !slices.Equal(des, refined) {
		t.Fatalf("DES-labeled items %v, want MixedBatch's refined %v", des, refined)
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Fatal("mixed /sweep diverges from engine.MixedBatch")
	}
}

// Fidelity misuse is a deterministic rejection (a non-retryable error
// frame before any result): unknown labels, the "mixed" policy on an
// individual item, and pre-labeled items under a mixed request would all
// fail identically on every replica, so none may read as retryable.
func TestHandlerSweepFidelityRejections(t *testing.T) {
	s := testService(t)
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	for name, req := range map[string]SweepRequest{
		"unknown request fidelity": {SweepSpec: SweepSpec{Fidelity: "nope"}, Items: []SweepItem{{M: 2048, N: 8192, K: 4096, Prim: "AR"}}},
		"unknown item fidelity":    {Items: []SweepItem{{M: 2048, N: 8192, K: 4096, Prim: "AR", Fidelity: "nope"}}},
		"mixed as item fidelity":   {Items: []SweepItem{{M: 2048, N: 8192, K: 4096, Prim: "AR", Fidelity: FidelityMixed}}},
		"pre-labeled under mixed":  {SweepSpec: SweepSpec{Fidelity: FidelityMixed}, Items: []SweepItem{{M: 2048, N: 8192, K: 4096, Prim: "AR", Fidelity: FidelityDES}}},
	} {
		frames := decodeFrames(t, postSweep(t, srv.URL, req))
		if len(frames) != 1 || frames[0].Frame != FrameError || frames[0].Error == nil || frames[0].Error.Retryable {
			t.Errorf("%s: frames = %+v, want one non-retryable error frame", name, frames)
		}
		chunk, err := collectChunk(s, req)
		if err == nil {
			t.Errorf("%s: in-process SweepChunk accepted", name)
		} else if !IsBadQuery(err) {
			t.Errorf("%s: error %v is not a bad-query rejection", name, err)
		}
		if len(chunk) != 0 {
			t.Errorf("%s: rejection returned %d results", name, len(chunk))
		}
	}
}

// Analytic execution refuses variant knobs it cannot model rather than
// silently mispredicting them — here, through the serve layer's own engine.
func TestAnalyticRejectsUnmodeledVariants(t *testing.T) {
	s := testService(t)
	if _, err := s.eng.Exec(context.Background(), core.Options{
		Plat: s.cfg.Plat, NGPUs: s.cfg.NGPUs,
		Shape: warmShapes[0], Prim: hw.AllReduce,
		Fidelity: core.FidelityAnalytic, Trace: true,
	}); err == nil {
		t.Fatal("analytic execution accepted a trace request")
	}
}
