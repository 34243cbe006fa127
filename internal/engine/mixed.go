package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/gemm"
	"repro/internal/sim"
)

// Mixed-fidelity sweep defaults.
const (
	// DefaultTopK is how many candidates per rank cell the mixed sweep
	// confirms on the simulator. One suffices when the analytic model's
	// ~2% error is small against the latency spread inside a cell, which
	// holds at DefaultRankQuantum granularity on the Table 3 grids.
	DefaultTopK = 1
	// DefaultRankQuantum is the rank-cell edge in log2 units — 8x coarser
	// than the shard ownership lattice (shard.DefaultQuantum), because
	// ranking wants cells with several competing candidates while
	// ownership wants cells fine enough to keep caches disjoint.
	DefaultRankQuantum = 4.0
)

// RankTopK groups items by the quantized (log2 M·N, log2 K) cell of their
// shape and returns the global indices of the k analytically fastest items
// of every cell, ascending — the candidate set a mixed-fidelity sweep
// re-runs at DES fidelity. Ties break toward the lower index, and cells
// with at most k items are taken whole, so the selection is deterministic
// and independent of how the grid was sharded. k <= 0 selects DefaultTopK;
// quantum <= 0 selects DefaultRankQuantum.
func RankTopK(shapes []gemm.Shape, latencies []sim.Time, k int, quantum float64) []int {
	if len(shapes) != len(latencies) {
		panic("engine: RankTopK shape/latency length mismatch")
	}
	if k <= 0 {
		k = DefaultTopK
	}
	if quantum <= 0 {
		quantum = DefaultRankQuantum
	}
	type cell struct{ qx, qy int64 }
	byCell := make(map[cell][]int)
	for i, s := range shapes {
		qx, qy := s.LogCell(quantum)
		c := cell{qx, qy}
		byCell[c] = append(byCell[c], i)
	}
	var refine []int
	for _, idxs := range byCell {
		sort.Slice(idxs, func(a, b int) bool {
			if latencies[idxs[a]] != latencies[idxs[b]] {
				return latencies[idxs[a]] < latencies[idxs[b]]
			}
			return idxs[a] < idxs[b]
		})
		take := k
		if take > len(idxs) {
			take = len(idxs)
		}
		refine = append(refine, idxs[:take]...)
	}
	sort.Ints(refine)
	return refine
}

// Mixed is the mixed-fidelity policy, written once for every sweep path:
// the whole grid of len(shapes) items runs analytically (orders of
// magnitude cheaper than simulation), the candidates are ranked per
// RankTopK cell, and only the top k per cell re-run through the simulator.
// It returns the refined (DES-confirmed) indices, ascending.
//
// run executes the items named by idx (global grid indices, ascending) at
// fidelity f and calls its emit argument once per item with the item's
// global index. It must report failures at global indices too: the mapping
// from its own sub-grid positions back to idx is the caller's, because only
// the caller knows its error type. latency reads the analytic latency a
// result ranks by.
//
// Release order: the analytic tier is buffered (ranking is global, so
// O(grid) is inherent to the policy); every item ranking does not pick is
// emitted, ascending, as soon as ranking finishes, and each refinement is
// emitted as its DES run completes. Every index is emitted exactly once.
// A ctx cancelled between the two phases returns the bare ctx.Err() before
// any refinement runs; a non-nil emit return aborts and surfaces verbatim.
func Mixed[R any](ctx context.Context, shapes []gemm.Shape, topK int, quantum float64,
	run func(ctx context.Context, f core.Fidelity, idx []int, emit func(i int, r R) error) error,
	latency func(R) sim.Time, emit func(i int, r R) error) ([]int, error) {
	all := make([]int, len(shapes))
	for i := range all {
		all[i] = i
	}
	analytic := make([]R, len(shapes))
	err := run(ctx, core.FidelityAnalytic, all, func(i int, r R) error {
		analytic[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	latencies := make([]sim.Time, len(shapes))
	for i, r := range analytic {
		latencies[i] = latency(r)
	}
	refined := RankTopK(shapes, latencies, topK, quantum)
	next := 0
	for i, r := range analytic {
		if next < len(refined) && refined[next] == i {
			next++
			continue
		}
		if err := emit(i, r); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := run(ctx, core.FidelityDES, refined, emit); err != nil {
		return nil, err
	}
	return refined, nil
}

// MixedBatch is the mixed-fidelity sweep (see Mixed) over one engine:
// results[i] answers runs[i] with a fidelity label saying which tier
// produced it; refined lists the indices that got DES confirmation,
// ascending. The DES tier is byte-identical to a full-DES Batch restricted
// to the same indices — refinement changes which items pay for simulation,
// never what a simulation returns.
//
// Fidelity labels already present on runs are an error: the split is the
// policy MixedBatch itself implements.
//
// ctx cancellation stops whichever tier is running between items (see
// Batch) and returns the bare ctx.Err().
func (e *Engine) MixedBatch(ctx context.Context, runs []core.Options, topK int, quantum float64) (results []*core.Result, refined []int, err error) {
	shapes := make([]gemm.Shape, len(runs))
	for i, o := range runs {
		if o.Fidelity != "" {
			return nil, nil, &RunError{Index: i, Err: fmt.Errorf("engine: mixed batch run carries fidelity %q; the mixed policy assigns fidelities itself", o.Fidelity)}
		}
		shapes[i] = o.Shape
	}
	results = make([]*core.Result, len(runs))
	run := func(ctx context.Context, f core.Fidelity, idx []int, emit func(int, *core.Result) error) error {
		sub := make([]core.Options, len(idx))
		for j, gi := range idx {
			sub[j] = runs[gi]
			sub[j].Fidelity = f
		}
		res, err := e.Batch(ctx, sub)
		if err != nil {
			// Translate the sub-batch index back to the caller's grid.
			var re *RunError
			if errors.As(err, &re) && re.Index >= 0 && re.Index < len(idx) {
				err = &RunError{Index: idx[re.Index], Err: re.Err}
			}
			return err
		}
		for j, gi := range idx {
			if err := emit(gi, res[j]); err != nil {
				return err
			}
		}
		return nil
	}
	latency := func(r *core.Result) sim.Time { return r.Latency }
	refined, err = Mixed(ctx, shapes, topK, quantum, run, latency, func(i int, r *core.Result) error {
		results[i] = r
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results, refined, nil
}
