package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/tuner"
)

// Every check compares the fleet's answers with the same computation done
// in this process from the same public constructors, off the clock.

// verdict counts wrong answers and keeps the first for the error message.
type verdict struct {
	wrong int
	first error
}

func (v *verdict) fail(format string, args ...any) {
	v.wrong++
	if v.first == nil {
		v.first = fmt.Errorf(format, args...)
	}
}

func encodeIndented(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// warmReplies returns the exact router reply for every warm key: the
// pre-encoded answer of an in-process serve.Service warmed like the fleet,
// plus the router's owner/replica attribution on a healthy fleet.
func warmReplies(ctx context.Context, ws warmSet) (map[key][]byte, error) {
	svc, err := serve.New(serve.Config{Plat: fleetPlat(), NGPUs: fleetGPUs})
	if err != nil {
		return nil, err
	}
	if err := svc.Warm(ctx, ws.prims, ws.shapes, 0); err != nil {
		return nil, err
	}
	for _, q := range ws.extra {
		if _, err := svc.Query(ctx, q); err != nil {
			return nil, err
		}
	}
	part := shard.NewPartitioner(fleetShards)
	out := make(map[key][]byte, len(ws.keys))
	for k := range ws.keys {
		q := serve.Query{Shape: k.shape, Prim: k.prim}
		if k.imb > 1 {
			q.Imbalance = k.imb
		}
		raw, ok := svc.QueryEncoded(q)
		if !ok {
			return nil, fmt.Errorf("reference service has no warm answer for %v %v", k.prim, k.shape)
		}
		var qr serve.QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			return nil, err
		}
		owner := part.Owner(k.shape)
		if out[k], err = encodeIndented(shard.RoutedResponse{QueryResponse: qr, Owner: owner, Replica: owner}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkWarm requires every reply to be byte-identical to its reference.
func checkWarm(events []Event, samples []sample, want map[key][]byte) verdict {
	var v verdict
	for i, s := range samples {
		if s.failed() {
			continue
		}
		if exp, ok := want[keyOf(events[i].Query)]; !ok || !bytes.Equal(s.body, exp) {
			v.fail("query-warm reply %d for %v %v differs from the reference: %s", i, events[i].Query.Prim, events[i].Query.Shape, s.body)
		}
	}
	return v
}

// newRefTuner is a tuner configured like a cmd/serve replica's.
func newRefTuner(prim hw.Primitive) *tuner.Tuner {
	tn := tuner.NewTuner(fleetPlat(), fleetGPUs, prim)
	tn.CandidateLimit = 512
	return tn
}

// refTunes runs tuner.Tune on every shape, two at a time.
func refTunes(ctx context.Context, tn *tuner.Tuner, shapes []gemm.Shape) (map[gemm.Shape]gemm.Partition, error) {
	out := make(map[gemm.Shape]gemm.Partition, len(shapes))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	work := make(chan gemm.Shape)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				p, err := tn.Tune(ctx, s, 0)
				mu.Lock()
				out[s] = p
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for _, s := range shapes {
		work <- s
	}
	close(work)
	wg.Wait()
	return out, firstErr
}

// checkDynamic checks query-dynamic's replies: a tuned answer must be the
// partition tuner.Tune picks for the shape; a cache answer (exact or
// nearest) must cover the shape's waves and carry the predictor's latency
// for its partition.
func checkDynamic(ctx context.Context, events []Event, samples []sample) (verdict, error) {
	var v verdict
	replies := make([]shard.RoutedResponse, len(samples))
	var tuned []gemm.Shape
	seen := map[gemm.Shape]bool{}
	for i, s := range samples {
		if s.failed() {
			continue
		}
		if err := json.Unmarshal(s.body, &replies[i]); err != nil {
			v.fail("query-dynamic reply %d: %v", i, err)
			continue
		}
		if sh := events[i].Query.Shape; replies[i].Source == serve.SourceTuned && !seen[sh] {
			seen[sh] = true
			tuned = append(tuned, sh)
		}
	}
	tn := newRefTuner(hw.AllReduce)
	ref, err := refTunes(ctx, tn, tuned)
	if err != nil {
		return v, err
	}
	part := shard.NewPartitioner(fleetShards)
	for i, s := range samples {
		r := replies[i]
		if s.failed() || r.Source == "" {
			continue
		}
		q := events[i].Query
		pred, err := tuner.NewPredictor(fleetPlat(), q.Shape, gemm.Config{}, tn.Curve, q.Imbalance)
		if err != nil {
			return v, err
		}
		p := gemm.Partition(r.Partition)
		if r.Shape != q.Shape.String() || r.Primitive != q.Prim.String() || r.Owner != part.Owner(q.Shape) || r.Replica != r.Owner {
			v.fail("query-dynamic reply %d answers %s %s from %d/%d, asked %v %v", i, r.Primitive, r.Shape, r.Owner, r.Replica, q.Prim, q.Shape)
			continue
		}
		switch r.Source {
		case serve.SourceTuned:
			if !equalParts(p, ref[q.Shape]) {
				v.fail("query-dynamic reply %d for %v: tuned partition %v, tuner.Tune gives %v", i, q.Shape, p, ref[q.Shape])
				continue
			}
		case serve.SourceCache:
		default:
			v.fail("query-dynamic reply %d: unknown source %q", i, r.Source)
			continue
		}
		if p.Validate(pred.Waves) != nil || r.Waves != pred.Waves {
			v.fail("query-dynamic reply %d for %v: partition %v (%d waves) does not cover the shape's %d waves", i, q.Shape, p, r.Waves, pred.Waves)
			continue
		}
		if lat, err := pred.Predict(p); err != nil || int64(lat) != r.PredictedNs {
			v.fail("query-dynamic reply %d for %v: predicted_ns %d, predictor gives %d (%v)", i, q.Shape, r.PredictedNs, int64(lat), err)
		}
	}
	return v, nil
}

func equalParts(a, b gemm.Partition) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sweepRuns converts grid items to the engine runs the fleet executes.
func sweepRuns(items []serve.SweepItem) ([]core.Options, error) {
	runs := make([]core.Options, len(items))
	for i, it := range items {
		q, err := it.Query()
		if err != nil {
			return nil, err
		}
		runs[i] = core.Options{Plat: fleetPlat(), NGPUs: fleetGPUs, Shape: q.Shape, Prim: q.Prim, Imbalance: q.Imbalance}
	}
	return runs, nil
}

// sweepReference is a local engine.MixedBatch of the grid: the encoded
// result of every item and the refined (DES) set.
type sweepReference struct {
	results [][]byte
	refined map[int]bool
}

func newSweepReference(ctx context.Context, items []serve.SweepItem) (sweepReference, error) {
	runs, err := sweepRuns(items)
	if err != nil {
		return sweepReference{}, err
	}
	res, refined, err := engine.New(0, 0).MixedBatch(ctx, runs, sweepTopK, sweepQuantum)
	if err != nil {
		return sweepReference{}, err
	}
	ref := sweepReference{results: make([][]byte, len(res)), refined: map[int]bool{}}
	for i, r := range res {
		if ref.results[i], err = json.Marshal(r); err != nil {
			return sweepReference{}, err
		}
	}
	for _, i := range refined {
		ref.refined[i] = true
	}
	return ref, nil
}

// wireFrame is the part of a router result frame the check reads; the
// engine result stays raw so it is compared byte for byte.
type wireFrame struct {
	Frame  string `json:"frame"`
	Index  int    `json:"index"`
	Count  int    `json:"count"`
	Result *struct {
		Fidelity string          `json:"fidelity"`
		Result   json.RawMessage `json:"result"`
	} `json:"result"`
}

// checkSweep requires exactly one result frame per item, each
// byte-identical to the reference, DES exactly on the reference's refined
// set, and a done frame counting them all.
func checkSweep(ref sweepReference, run sweepRun) verdict {
	var v verdict
	n := len(ref.results)
	got := make([]bool, n)
	for _, line := range run.results {
		var f wireFrame
		if err := json.Unmarshal(line, &f); err != nil || f.Result == nil || f.Index < 0 || f.Index >= n {
			v.fail("sweep: bad result frame %.200s", line)
			continue
		}
		if got[f.Index] {
			v.fail("sweep: duplicate result frame for item %d", f.Index)
			continue
		}
		got[f.Index] = true
		if !bytes.Equal(f.Result.Result, ref.results[f.Index]) {
			v.fail("sweep: item %d differs from engine.MixedBatch: %.200s", f.Index, f.Result.Result)
		}
		if wantDES := ref.refined[f.Index]; wantDES != (f.Result.Fidelity == serve.FidelityDES) {
			v.fail("sweep: item %d ran at fidelity %q, refined set says des=%v", f.Index, f.Result.Fidelity, wantDES)
		}
	}
	for i, ok := range got {
		if !ok {
			v.fail("sweep: no result frame for item %d", i)
		}
	}
	var term wireFrame
	if err := json.Unmarshal(run.terminal, &term); err != nil || term.Frame != serve.FrameDone || term.Count != n {
		v.fail("sweep: terminal frame %.200s, want done with count %d", run.terminal, n)
	}
	return v
}
