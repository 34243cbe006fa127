package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/sim"
)

// Wire-level fidelity labels. FidelityDES and FidelityAnalytic name the two
// execution backends (see core.Fidelity); FidelityMixed is a sweep-level
// policy — run the grid analytically, confirm the top-k per rank cell on
// the simulator — valid on a SweepRequest but never on an individual item
// or result, since every execution is ultimately one of the two backends.
const (
	FidelityDES      = string(core.FidelityDES)
	FidelityAnalytic = string(core.FidelityAnalytic)
	FidelityMixed    = "mixed"
)

// SweepItem is one (shape, primitive, imbalance) cell of a sweep chunk, in
// wire form: the body a sweep coordinator POSTs to a replica's /sweep.
type SweepItem struct {
	M         int     `json:"m"`
	N         int     `json:"n"`
	K         int     `json:"k"`
	Prim      string  `json:"prim"`
	Imbalance float64 `json:"imbalance,omitempty"`
	// Fidelity selects this item's execution backend: "des", "analytic",
	// or "" to inherit the request's default. A mixed-fidelity coordinator
	// stamps items individually, so a chunk can carry both tiers.
	Fidelity string `json:"fidelity,omitempty"`
}

// Shape returns the item's GEMM shape (the coordinate the shard partitioner
// assigns ownership by).
func (it SweepItem) Shape() gemm.Shape { return gemm.Shape{M: it.M, N: it.N, K: it.K} }

// Query validates the wire item and converts it to a Query, applying the
// same rules ParseQuery applies to /query parameters (an empty primitive
// defaults to AllReduce).
func (it SweepItem) Query() (Query, error) {
	primName := it.Prim
	if primName == "" {
		primName = "AR"
	}
	prim, err := ParsePrimitive(primName)
	if err != nil {
		return Query{}, err
	}
	q := Query{Shape: it.Shape(), Prim: prim, Imbalance: it.Imbalance}
	if err := validateQuery(q); err != nil {
		return Query{}, err
	}
	return q, nil
}

// fidelity resolves the item's effective execution fidelity under the
// request-level default. Only the two backend fidelities are legal per
// item: "mixed" is a grid policy, not an execution.
func (it SweepItem) fidelity(requestDefault string) (core.Fidelity, error) {
	f := it.Fidelity
	if f == "" {
		f = requestDefault
	}
	switch f {
	case "", FidelityDES:
		return core.FidelityDES, nil
	case FidelityAnalytic:
		return core.FidelityAnalytic, nil
	case FidelityMixed:
		return "", badQueryf("serve: item fidelity %q is a sweep policy; items execute as %q or %q", f, FidelityDES, FidelityAnalytic)
	}
	return "", badQueryf("serve: unknown fidelity %q (want %q, %q, or %q)", f, FidelityDES, FidelityAnalytic, FidelityMixed)
}

// SweepSpec is the one options struct every sweep knob lives in — shared by
// the wire request, the shard coordinator, the router's /sweep proxy, and
// cmd/sweep's flags, so a knob added here is automatically forwarded at
// every hop instead of silently resetting to a default mid-path. The wire
// fields marshal inside SweepRequest's JSON body; the health fields are
// driver-local (marked json:"-"): a fleet's health windows belong to the
// fleet's operator, not to whichever remote client posts a sweep.
type SweepSpec struct {
	// Tune selects the tuned pipeline: each item is first answered through
	// Service.Query (shape cache, singleflight) and then executed once
	// with the tuned partition. When false, each item runs the untuned
	// per-wave baseline — a pure engine execution whose result is
	// deterministic and cache-history-free, so sharded sweeps merge
	// byte-identically to engine.Batch no matter which replica ran which
	// chunk.
	Tune bool `json:"tune,omitempty"`
	// Chunk and Attempts forward the sweeping coordinator's knobs. A
	// single replica ignores them (the posted Items already are one
	// chunk), but a router proxying /sweep for a whole fleet re-chunks
	// and re-dispatches with them instead of silently resetting the
	// caller's choices to defaults. Zero selects the proxy's defaults,
	// which keeps old clients byte-compatible on the wire.
	Chunk    int `json:"chunk,omitempty"`
	Attempts int `json:"attempts,omitempty"`
	// Fidelity is the default for items that do not carry their own label:
	// "des" (also the "" default), "analytic", or "mixed". Mixed runs the
	// posted grid analytically, ranks per quantized shape cell, and
	// re-runs the top TopK per cell on the simulator before replying —
	// items under a mixed request must not carry per-item labels.
	Fidelity string `json:"fidelity,omitempty"`
	// TopK bounds the per-cell DES confirmations of a mixed request;
	// <= 0 selects engine.DefaultTopK.
	TopK int `json:"topk,omitempty"`
	// RankQuantum is the mixed sweep's rank-cell edge in log2 units; <= 0
	// selects engine.DefaultRankQuantum.
	RankQuantum float64 `json:"rank_quantum,omitempty"`
	// Tenant is the sweep's optional accounting label, the /sweep analogue
	// of /query's tenant parameter: executed items count into the tenant's
	// swept_items in /stats. Purely attributive — it never affects what
	// executes — and forwarded hop by hop like every other spec field, so a
	// router proxy and the coordinator behind it attribute identically.
	Tenant string `json:"tenant,omitempty"`
	// HealthCooldown and ProbeInterval tune the driving coordinator's
	// health plane: how long a failed replica is benched, and how often
	// the background /healthz prober runs. Never serialized — a router
	// proxy applies its own fleet's windows, not a remote caller's.
	HealthCooldown time.Duration `json:"-"`
	ProbeInterval  time.Duration `json:"-"`
}

// SweepRequest is the JSON body of POST /sweep: one chunk of a (possibly
// fleet-wide) sweep grid, processed in order on the replica, plus the
// embedded SweepSpec knobs.
type SweepRequest struct {
	SweepSpec
	// Stream is accepted and ignored: every /sweep reply is the NDJSON
	// frame stream. The field stays only because Go callers still set it
	// (perfbench does).
	Stream bool        `json:"stream,omitempty"`
	Items  []SweepItem `json:"items"`
}

// SweepResult is one item's outcome: the partition the run used (tuned or
// per-wave default), the tuner's prediction when Tune was set, and the full
// deterministic execution result.
type SweepResult struct {
	Shape     string `json:"shape"`
	Primitive string `json:"primitive"`
	Partition []int  `json:"partition"`
	Waves     int    `json:"waves"`
	// Fidelity labels the backend that produced Result: "des" or
	// "analytic", mirroring Result.Fidelity for callers that only read
	// the wire envelope.
	Fidelity string `json:"fidelity"`
	// PredictedNs and Source are set only on tuned sweeps; Source is
	// SourceCache or SourceTuned, like a /query answer.
	PredictedNs int64        `json:"predicted_ns,omitempty"`
	Source      string       `json:"source,omitempty"`
	Result      *core.Result `json:"result"`
}

// ChunkError is the error SweepChunk returns: the failing item's index
// within the chunk plus the cause — the serve-side analogue of
// engine.RunError, letting a sweep coordinator translate the chunk-local
// index back to a global grid index. It classifies like its cause: a chunk
// that failed on a bad item satisfies IsBadQuery through Unwrap.
type ChunkError struct {
	Index int
	Err   error
}

func (e *ChunkError) Error() string { return fmt.Sprintf("chunk item %d: %v", e.Index, e.Err) }
func (e *ChunkError) Unwrap() error { return e.Err }

// SweepSink consumes one completed sweep result. index names the item the
// result answers (its position in the posted Items); a non-nil return
// aborts the chunk and surfaces verbatim from SweepChunk — the seam that
// lets an HTTP handler stop executing the moment its client hangs up.
type SweepSink func(index int, res SweepResult) error

// SweepChunk processes one sweep chunk in input order — serially, preserving
// the cache-warming locality a replica's owned slice is partitioned for —
// and emits each result into sink as it completes, so the chunk's memory
// footprint is O(1) results however long the chunk: the execution core of
// the /sweep frame stream.
//
// Flat (single-tier) chunks emit in ascending index order; on failure,
// exactly the completed prefix [0, Index) has been emitted — the emitted
// results are the partial-chunk salvage — and the failing item's
// chunk-local index is reported as a *ChunkError. A request-level "mixed"
// fidelity runs engine.Mixed's policy over the posted grid (analytic pass,
// per-cell ranking, DES confirmation of the top TopK per cell); the tiers
// interleave, so a mixed chunk emits only once every result is final (still
// in ascending index order) and a failed mixed chunk emits nothing.
//
// Each item executes at its resolved fidelity (item label, else the
// request default): DES through a private deterministic simulator, analytic
// through the Algorithm 1 predictor over the engine's bandwidth-curve
// cache. Both are byte-identical no matter which replica of an identically
// configured fleet executes the chunk — the property that lets a
// coordinator re-dispatch chunks through the failover ring without
// perturbing the merged sweep.
//
// ctx cancellation stops the chunk between items (an in-flight DES item
// aborts between simulator events): the emitted prefix is the salvage, the
// chunk returns a *ChunkError wrapping the ctx error at the first
// unanswered index, and the unanswered remainder counts into
// cancelled_sweep_items (plus deadline_exceeded when the deadline caused
// it).
func (s *Service) SweepChunk(ctx context.Context, req SweepRequest, sink SweepSink) error {
	if err := ValidateTenant(req.Tenant); err != nil {
		return &ChunkError{Index: 0, Err: err}
	}
	emitted := 0
	counted := func(i int, res SweepResult) error {
		if err := sink(i, res); err != nil {
			return err
		}
		emitted++
		return nil
	}
	err := s.sweepChunk(ctx, req, counted)
	if err != nil {
		// Count via ctx.Err() as well as the returned error: a sink write
		// failure caused by the client hanging up races the loop's own ctx
		// check, and both must attribute the unanswered remainder.
		ctxErr := ctx.Err()
		if ctxErr != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if rest := len(req.Items) - emitted; rest > 0 {
				s.cancelledSweep.Add(uint64(rest))
			}
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(ctxErr, context.DeadlineExceeded) {
				s.deadlineExceeded.Add(1)
			}
		}
	}
	return err
}

// sweepChunk dispatches on the request-level fidelity; SweepChunk wraps it
// to attribute cancelled items.
func (s *Service) sweepChunk(ctx context.Context, req SweepRequest, sink SweepSink) error {
	switch req.Fidelity {
	case "", FidelityDES, FidelityAnalytic:
		return s.sweepChunkFlat(ctx, req, sink)
	case FidelityMixed:
		return s.sweepChunkMixed(ctx, req, sink)
	}
	return &ChunkError{Index: 0, Err: badQueryf("serve: unknown sweep fidelity %q (want %q, %q, or %q)", req.Fidelity, FidelityDES, FidelityAnalytic, FidelityMixed)}
}

// sweepChunkFlat is the single-tier chunk loop: every item executes at its
// own resolved fidelity and is emitted as soon as it completes.
func (s *Service) sweepChunkFlat(ctx context.Context, req SweepRequest, sink SweepSink) error {
	for i, it := range req.Items {
		if err := ctx.Err(); err != nil {
			return &ChunkError{Index: i, Err: err}
		}
		q, err := it.Query()
		if err != nil {
			return &ChunkError{Index: i, Err: &BadQueryError{Err: err}}
		}
		fid, err := it.fidelity(req.Fidelity)
		if err != nil {
			return &ChunkError{Index: i, Err: err}
		}
		opts := core.Options{
			Plat:      s.cfg.Plat,
			NGPUs:     s.cfg.NGPUs,
			Shape:     q.Shape,
			Prim:      q.Prim,
			Imbalance: q.Imbalance,
			Fidelity:  fid,
		}
		res := SweepResult{Shape: q.Shape.String(), Primitive: q.Prim.String()}
		if req.Tune {
			ans, err := s.Query(ctx, q)
			if err != nil {
				return &ChunkError{Index: i, Err: err}
			}
			opts.Partition = ans.Partition
			res.PredictedNs = int64(ans.Predicted)
			res.Source = ans.Source
		}
		r, err := s.eng.Exec(ctx, opts)
		if err != nil {
			return &ChunkError{Index: i, Err: err}
		}
		s.countSwept(req.Tenant, r.Fidelity)
		res.Partition = r.Partition
		res.Waves = r.Waves
		res.Fidelity = string(r.Fidelity)
		res.Result = r
		if err := sink(i, res); err != nil {
			return err
		}
	}
	return nil
}

// sweepChunkMixed runs the request's grid at mixed fidelity within this
// replica: engine.Mixed's policy with each phase executed by
// sweepChunkFlat. The coordinator never sends this (it orchestrates the
// tiers itself, stamping items); it serves direct /sweep clients, so a
// single replica and a router proxy answer the same wire request the same
// way. The tiers interleave, so results are buffered and released in
// ascending order only once all are final: a failed mixed chunk emits
// nothing, because an analytic prefix is not a final prefix of the answer.
func (s *Service) sweepChunkMixed(ctx context.Context, req SweepRequest, sink SweepSink) error {
	shapes := make([]gemm.Shape, len(req.Items))
	for i, it := range req.Items {
		if it.Fidelity != "" {
			return &ChunkError{Index: i, Err: badQueryf("serve: mixed sweep item carries fidelity %q; the mixed policy assigns fidelities itself", it.Fidelity)}
		}
		shapes[i] = it.Shape()
	}
	run := func(ctx context.Context, f core.Fidelity, idx []int, emit func(int, SweepResult) error) error {
		sub := SweepRequest{SweepSpec: SweepSpec{Tune: req.Tune, Fidelity: string(f), Tenant: req.Tenant}, Items: make([]SweepItem, len(idx))}
		for j, gi := range idx {
			sub.Items[j] = req.Items[gi]
		}
		err := s.sweepChunkFlat(ctx, sub, func(j int, res SweepResult) error { return emit(idx[j], res) })
		var ce *ChunkError
		if errors.As(err, &ce) && ce.Index >= 0 && ce.Index < len(idx) {
			err = &ChunkError{Index: idx[ce.Index], Err: ce.Err}
		}
		return err
	}
	latency := func(r SweepResult) sim.Time { return r.Result.Latency }
	out := make([]SweepResult, len(req.Items))
	_, err := engine.Mixed(ctx, shapes, req.TopK, req.RankQuantum, run, latency, func(i int, res SweepResult) error {
		out[i] = res
		return nil
	})
	if err != nil {
		return err
	}
	for i, res := range out {
		if err := sink(i, res); err != nil {
			return err
		}
	}
	return nil
}
