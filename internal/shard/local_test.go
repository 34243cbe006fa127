package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/expt"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/stats"
)

// localReplicas builds n in-process replicas (no HTTP) of one platform,
// each owning its slice of the shape plane. Only the RTX 4090 fleet gets
// the shared AllReduce curve; the others never run the analytic backend.
func localReplicas(t *testing.T, plat hw.Platform, n int) []*serve.Service {
	t.Helper()
	var curves map[hw.Primitive]*stats.Curve
	if plat == hw.RTX4090PCIe() {
		curves = sharedCurves(t)
	}
	services := make([]*serve.Service, n)
	for k := range services {
		a := Assignment{Index: k, Count: n}
		svc, err := serve.New(serve.Config{
			Plat:           plat,
			NGPUs:          2,
			CandidateLimit: 64,
			Owns:           a.Owns,
			Shard:          a.String(),
			Curves:         curves,
		})
		if err != nil {
			t.Fatal(err)
		}
		services[k] = svc
	}
	return services
}

// localRouter puts a router over in-process replicas.
func localRouter(t *testing.T, services []*serve.Service) *Router {
	t.Helper()
	clients := make([]Client, len(services))
	for k, svc := range services {
		clients[k] = &LocalClient{Svc: svc}
	}
	r, err := NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// localFleet builds an n-replica RTX 4090 router over LocalClients.
func localFleet(t *testing.T, n int) *Router {
	t.Helper()
	return localRouter(t, localReplicas(t, hw.RTX4090PCIe(), n))
}

// quickGrid is the full quick Table 3 sweep, split by platform: every
// (primitive, shape) cell as an untuned sweep item, plus its index in the
// whole grid and its engine reference run.
type quickGrid struct {
	plat  hw.Platform
	items []serve.SweepItem
	index []int
}

func quickGridRuns() ([]quickGrid, []core.Options) {
	var grids []quickGrid
	var runs []core.Options
	for _, grid := range expt.Table3Grids(true) {
		if len(grids) == 0 || grids[len(grids)-1].plat != grid.Plat {
			grids = append(grids, quickGrid{plat: grid.Plat})
		}
		g := &grids[len(grids)-1]
		for _, s := range grid.Shapes {
			g.items = append(g.items, serve.SweepItem{M: s.M, N: s.N, K: s.K, Prim: grid.Prim.Short()})
			g.index = append(g.index, len(runs))
			runs = append(runs, core.Options{Plat: grid.Plat, NGPUs: 2, Shape: s, Prim: grid.Prim})
		}
	}
	return grids, runs
}

// The acceptance property of the sharded sweep over in-process replicas:
// splitting the quick Table 3 grid across any number of LocalClient
// replicas (one fleet per platform) and merging the results reproduces the
// unsharded engine.Batch output byte for byte.
func TestCoordinatorLocalSweepMatchesUnshardedByteForByte(t *testing.T) {
	grids, runs := quickGridRuns()
	if len(grids) < 2 {
		t.Fatalf("quick Table 3 grid spans %d platforms, want every platform", len(grids))
	}
	reference, err := engine.New(0, 0).Batch(context.Background(), runs)
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := json.Marshal(reference)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 5; n++ {
		merged := make([]*core.Result, len(runs))
		for _, g := range grids {
			results, err := NewCoordinator(localRouter(t, localReplicas(t, g.plat, n))).Sweep(context.Background(), g.items)
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, g.plat.Name, err)
			}
			for j, res := range results {
				merged[g.index[j]] = res.Result
			}
		}
		gotJSON, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, refJSON) {
			t.Fatalf("n=%d: merged results differ from unsharded batch", n)
		}
	}
}

// Replica-local plan caches must stay disjoint and still compile each
// unique plan exactly once fleet-wide.
func TestCoordinatorCompilesEachPlanOncePerFleet(t *testing.T) {
	grids, runs := quickGridRuns()
	const n = 3
	var misses uint64
	busy := make([]bool, n) // shard k got work on some platform's fleet
	for _, g := range grids {
		services := localReplicas(t, g.plat, n)
		// Duplicate the grid so plan caching has hits to find.
		items := append(append([]serve.SweepItem(nil), g.items...), g.items...)
		if _, err := NewCoordinator(localRouter(t, services)).Sweep(context.Background(), items); err != nil {
			t.Fatal(err)
		}
		for k, svc := range services {
			st := svc.Stats().Engine
			busy[k] = busy[k] || st.Misses > 0
			misses += st.Misses
		}
	}
	for k, b := range busy {
		if !b {
			t.Errorf("idle shard %d: partitioner sent it nothing from the quick grid", k)
		}
	}
	if misses != uint64(len(runs)) {
		t.Fatalf("fleet compiled %d plans, want one per unique item (%d)", misses, len(runs))
	}
}

// A failing item must surface the same global index the unsharded path
// reports, no matter which replica it lands on.
func TestCoordinatorLocalSweepErrorKeepsGlobalIndex(t *testing.T) {
	grids, runs := quickGridRuns()
	g := grids[0]
	bad := 7
	g.items[bad].M = 0
	runs[g.index[bad]].Shape = gemm.Shape{M: 0, N: 8192, K: 4096}

	_, refErr := engine.New(0, 0).Batch(context.Background(), runs)
	var re *engine.RunError
	if !errors.As(refErr, &re) || re.Index != g.index[bad] {
		t.Fatalf("unsharded error %v, want RunError at %d", refErr, g.index[bad])
	}
	for n := 1; n <= 4; n++ {
		_, err := NewCoordinator(localRouter(t, localReplicas(t, g.plat, n))).Sweep(context.Background(), g.items)
		if err == nil {
			t.Fatalf("n=%d: sharded sweep accepted the invalid item", n)
		}
		if want := "sweep item 7:"; !strings.Contains(err.Error(), want) {
			t.Fatalf("n=%d: error %q does not name %q", n, err, want)
		}
	}
}
