package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/sim"
)

// fakeResult is what the fake run executes: which tier ran the item.
type fakeResult struct {
	fid     core.Fidelity
	latency sim.Time
}

// fakeGrid is a grid with several items per rank cell, so ranking keeps
// some and refines others.
func fakeGrid() []gemm.Shape {
	var shapes []gemm.Shape
	for _, m := range []int{1024, 1536, 2048, 4096, 6144, 8192} {
		for _, k := range []int{2048, 3072, 4096, 16384} {
			shapes = append(shapes, gemm.Shape{M: m, N: 8192, K: k})
		}
	}
	return shapes
}

// fakeRun executes idx at fidelity f without simulating: latencies are a
// fixed scramble of the index. It fails at phase position failAt when
// failPhase matches, reporting the global index like a real caller's run.
type fakeRun struct {
	failPhase core.Fidelity
	failAt    int
	phases    []core.Fidelity
}

type fakeRunError struct{ Index int }

func (e *fakeRunError) Error() string { return fmt.Sprintf("fake run failed at %d", e.Index) }

func (fr *fakeRun) run(ctx context.Context, f core.Fidelity, idx []int, emit func(int, fakeResult) error) error {
	fr.phases = append(fr.phases, f)
	for j, gi := range idx {
		if f == fr.failPhase && j == fr.failAt {
			return &fakeRunError{Index: gi}
		}
		if err := emit(gi, fakeResult{fid: f, latency: sim.Time((gi*7919)%97 + 1)}); err != nil {
			return err
		}
	}
	return nil
}

func fakeLatency(r fakeResult) sim.Time { return r.latency }

// The shared mixed policy's release contract: every index is emitted
// exactly once, every unrefined result before the refine phase starts, and
// refined items carry the DES tier.
func TestMixedEmitsEachIndexOnceKeepersFirst(t *testing.T) {
	shapes := fakeGrid()
	fr := &fakeRun{}
	emitted := make([]int, len(shapes))
	var order []int
	refinePhase := func() bool { return len(fr.phases) == 2 }
	refined, err := Mixed(context.Background(), shapes, 1, 2, fr.run, fakeLatency, func(i int, r fakeResult) error {
		emitted[i]++
		order = append(order, i)
		if want := core.FidelityAnalytic; refinePhase() {
			want = core.FidelityDES
			if r.fid != want {
				t.Errorf("item %d emitted from the %q tier during the refine phase", i, r.fid)
			}
		} else if r.fid != want {
			t.Errorf("item %d emitted from the %q tier before the refine phase", i, r.fid)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fr.phases, []core.Fidelity{core.FidelityAnalytic, core.FidelityDES}) {
		t.Fatalf("phases %v, want analytic then des", fr.phases)
	}
	if len(refined) == 0 || len(refined) == len(shapes) {
		t.Fatalf("%d of %d items refined; the grid must exercise both tiers", len(refined), len(shapes))
	}
	for i, n := range emitted {
		if n != 1 {
			t.Fatalf("index %d emitted %d times", i, n)
		}
	}
	// Keepers come first, ascending; the refinements follow in refined order.
	keepers := len(shapes) - len(refined)
	if !slices.IsSorted(order[:keepers]) || !slices.Equal(order[keepers:], refined) {
		t.Fatalf("emission order %v: want ascending keepers, then refined %v", order, refined)
	}
}

// A refine-phase failure surfaces at the grid index of the failing
// refinement: the refine run receives exactly the refined indices, in
// order, and Mixed passes its error through.
func TestMixedRefineErrorKeepsGlobalIndex(t *testing.T) {
	shapes := fakeGrid()
	discard := func(int, fakeResult) error { return nil }
	refined, err := Mixed(context.Background(), shapes, 1, 2, (&fakeRun{}).run, fakeLatency, discard)
	if err != nil {
		t.Fatal(err)
	}
	for j := range refined {
		fr := &fakeRun{failPhase: core.FidelityDES, failAt: j}
		_, err := Mixed(context.Background(), shapes, 1, 2, fr.run, fakeLatency, discard)
		var fe *fakeRunError
		if !errors.As(err, &fe) || fe.Index != refined[j] {
			t.Fatalf("failure at refine position %d: err %v, want index %d", j, err, refined[j])
		}
	}
}

// A ctx cancelled between the phases stops Mixed before any refinement
// runs and returns the ctx error.
func TestMixedStopsBetweenPhasesOnCancel(t *testing.T) {
	shapes := fakeGrid()
	ctx, cancel := context.WithCancel(context.Background())
	fr := &fakeRun{}
	run := func(ctx context.Context, f core.Fidelity, idx []int, emit func(int, fakeResult) error) error {
		err := fr.run(ctx, f, idx, emit)
		cancel() // the caller walks away as the analytic phase completes
		return err
	}
	refined, err := Mixed(ctx, shapes, 1, 2, run, fakeLatency, func(i int, r fakeResult) error {
		if r.fid != core.FidelityAnalytic {
			t.Errorf("item %d refined under a cancelled ctx", i)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) || refined != nil {
		t.Fatalf("Mixed = (%v, %v), want (nil, context.Canceled)", refined, err)
	}
	if len(fr.phases) != 1 {
		t.Fatalf("ran phases %v after cancellation, want only the analytic phase", fr.phases)
	}
}
