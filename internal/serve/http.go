package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/gemm"
)

// QueryResponse is the JSON shape of a /query reply.
type QueryResponse struct {
	Shape       string `json:"shape"`
	Primitive   string `json:"primitive"`
	Partition   []int  `json:"partition"`
	Waves       int    `json:"waves"`
	PredictedNs int64  `json:"predicted_ns"`
	Source      string `json:"source"`
}

// ContentTypeNDJSON is the media type of every /sweep reply that gets past
// request decoding: newline-delimited JSON, one SweepFrame per line. Every
// /sweep server here (replica and router) replies with it whatever the
// request's Accept header says.
const ContentTypeNDJSON = "application/x-ndjson"

// SweepFrame kinds. A /sweep stream is any number of result frames followed
// by exactly one terminal frame — done on success, error on failure.
const (
	FrameResult = "result"
	FrameDone   = "done"
	FrameError  = "error"
)

// SweepFrame is one NDJSON line of a /sweep stream.
type SweepFrame struct {
	// Frame discriminates the line: FrameResult, FrameDone, or FrameError.
	Frame string `json:"frame"`
	// Index is a result frame's item index into the posted grid. (With
	// omitempty an index of 0 is elided; decoders zero-default it back.)
	Index int `json:"index,omitempty"`
	// Fidelity mirrors Result.Fidelity on result frames, so stream
	// consumers can split tiers without opening the result object.
	Fidelity string       `json:"fidelity,omitempty"`
	Result   *SweepResult `json:"result,omitempty"`
	// Count is a done frame's total number of result frames streamed.
	Count int `json:"count,omitempty"`
	// Salvaged is an error frame's count of result frames streamed before
	// the failure — results the consumer may keep (partial-chunk salvage);
	// only the unanswered remainder needs re-dispatching.
	Salvaged int `json:"salvaged,omitempty"`
	// Error is an error frame's structured failure, the same envelope body
	// non-streaming endpoints wrap under {"error": ...}.
	Error *ErrorBody `json:"error,omitempty"`
}

// ErrorBody is the one error schema every endpoint speaks — /query, /sweep,
// /stats, /healthz, the router's proxied forms, and /sweep error frames.
type ErrorBody struct {
	Message string `json:"message"`
	// Retryable mirrors the status-class split: false for deterministic
	// request rejections (4xx — every replica rejects identically, so
	// routers must not fail over), true for replica-specific failures
	// (5xx — another replica may be healthy). Stream consumers rely on it:
	// an error frame arrives after the 200 status line, so the flag is the
	// only classification left on the wire.
	Retryable bool `json:"retryable"`
	// Index is the failing item's index for /sweep failures (into the
	// posted grid); nil when the failure is not attributable to an item.
	Index *int `json:"index,omitempty"`
}

// ErrorEnvelope is the JSON error reply of every non-streaming endpoint:
// {"error": {"message", "retryable", ...}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// WriteError writes the unified error envelope with the given status,
// deriving Retryable from the status class. Exported so the shard router's
// endpoints reply byte-identically to a replica's.
func WriteError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorEnvelope{Error: ErrorBody{Message: err.Error(), Retryable: status >= 500}})
}

// Handler mounts the service on an HTTP mux:
//
//	GET  /query?m=4096&n=8192&k=8192&prim=AR[&imbalance=1.2]
//	POST /sweep   {"tune": bool, "items": [{"m","n","k","prim","imbalance"}, ...]}
//	GET  /stats
//	GET  /healthz
//
// All endpoints reply with JSON; errors reply with the unified envelope
// {"error": {"message", "retryable", ...}}. The status classifies the
// failure: 4xx for deterministic request rejections (every replica would
// reject the same request identically, so routers must not fail over), 5xx
// for internal failures (replica-specific — a router's failover ring
// retries them elsewhere).
//
// POST /sweep replies an NDJSON stream of SweepFrame lines: one result
// frame per item as it completes, then a terminal done frame (or an error
// frame carrying the envelope body, the failing item's chunk-local index
// and the salvaged count, so a coordinator re-dispatches only the
// unanswered suffix). Neither side ever materializes a whole grid. A
// non-200 /sweep reply happens only before anything runs: 405 for another
// method, 413 for an oversize body, 400 for a malformed or empty one.
//
// /healthz is the liveness probe behind dead-replica re-admission: a 200
// means the process is up and serving. The handler is safe for concurrent
// use, like the service itself.
//
// Every request executes under a context derived from r.Context(), so a
// client that hangs up mid-/sweep stops the remaining chunk execution on
// the replica. Handler applies no additional deadline; HandlerWithTimeout
// adds one.
func Handler(s *Service) http.Handler { return HandlerWithTimeout(s, 0) }

// HandlerWithTimeout is Handler with a per-request execution deadline
// (cmd/serve's -request-timeout): each request's context is r.Context()
// plus, when timeout > 0, a deadline of that duration. A request that
// exceeds it is abandoned between items/events and answered with the
// retryable error envelope (or a /sweep error frame carrying the salvage
// count); the warm /query fast path never consults the context and stays
// zero-alloc.
func HandlerWithTimeout(s *Service, timeout time.Duration) http.Handler {
	// reqCtx derives the request-scoped context. The warm fast path runs
	// before any call to it, so timed-out-but-warm queries still answer —
	// a cache hit is cheaper than an error reply.
	reqCtx := func(r *http.Request) (context.Context, context.CancelFunc) {
		if timeout <= 0 {
			return r.Context(), func() {}
		}
		return context.WithTimeout(r.Context(), timeout)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		q, err := ParseQuery(r)
		if err != nil {
			WriteError(w, http.StatusBadRequest, err)
			return
		}
		// Warm fast path: a query whose exact key was tuned before is
		// answered from the pre-encoded reply bytes — no predictor, no
		// partition clone, no JSON encoder, and no context derivation. The
		// bytes are byte-identical to what the full path below would write.
		// The latency observation is an atomic bucket add (plus per-tenant
		// adds for an already-seen tenant), so recording here keeps the
		// path's zero-allocation contract — warm hits used to be invisible
		// to /stats latency, which skewed every percentile upward.
		if buf, ok := s.QueryEncoded(q); ok {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(buf)
			s.ObserveQuery(q.Tenant, time.Since(start), true)
			return
		}
		ctx, cancel := reqCtx(r)
		defer cancel()
		ans, err := s.Query(ctx, q)
		if err != nil {
			WriteError(w, errStatus(err), err)
			return
		}
		writeJSON(w, QueryResponse{
			Shape:       q.Shape.String(),
			Primitive:   q.Prim.String(),
			Partition:   ans.Partition,
			Waves:       ans.Waves,
			PredictedNs: int64(ans.Predicted),
			Source:      ans.Source,
		})
		s.ObserveQuery(q.Tenant, time.Since(start), ans.Source == SourceCache)
	})
	mux.HandleFunc("/sweep", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			WriteError(w, http.StatusMethodNotAllowed, fmt.Errorf("serve: /sweep takes POST, got %s", r.Method))
			return
		}
		req, status, err := DecodeSweepRequest(w, r)
		if err != nil {
			WriteError(w, status, fmt.Errorf("serve: %w", err))
			return
		}
		ctx, cancel := reqCtx(r)
		defer cancel()
		streamSweep(ctx, w, s, req)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness, not readiness: a process that can answer at all is
		// re-admittable — its caches rewarm through traffic.
		writeJSON(w, map[string]string{"status": "ok", "shard": s.cfg.Shard})
	})
	return mux
}

// streamSweep answers a decoded /sweep: result frames as items complete,
// then the terminal frame. The status line is committed before execution
// starts, so failures surface as error frames, not statuses — the frame's
// Retryable bit carries the 4xx/5xx classification.
func streamSweep(ctx context.Context, w http.ResponseWriter, s *Service, req SweepRequest) {
	w.Header().Set("Content-Type", ContentTypeNDJSON)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	count := 0
	err := s.SweepChunk(ctx, req, func(i int, res SweepResult) error {
		if err := enc.Encode(SweepFrame{Frame: FrameResult, Index: i, Fidelity: res.Fidelity, Result: &res}); err != nil {
			return err
		}
		if flusher != nil {
			// Per-frame flush is the bounded-memory contract: a frame
			// buffered server-side is a frame the coordinator cannot
			// release yet.
			flusher.Flush()
		}
		count++
		return nil
	})
	if err != nil {
		// A sink (write) failure means the client is gone — encoding the
		// terminal frame then fails identically and harmlessly. The cause
		// and the chunk-local index travel separately; the coordinator's
		// client rebuilds the ChunkError from them.
		body := ErrorBody{Retryable: errStatus(err) >= 500}
		var ce *ChunkError
		if errors.As(err, &ce) {
			idx := ce.Index
			body.Index, err = &idx, ce.Err
		}
		body.Message = err.Error()
		_ = enc.Encode(SweepFrame{Frame: FrameError, Salvaged: count, Error: &body})
		return
	}
	_ = enc.Encode(SweepFrame{Frame: FrameDone, Count: count})
}

// MaxSweepBodyBytes bounds a POST /sweep request body, at a replica and at
// the router alike. An item encodes to under 100 bytes, so 1 MiB admits
// grids of over ten thousand items: far more than the repo's own callers
// send (cmd/sweep posts chunks of shard.DefaultChunkSize items; perfbench
// posts its whole 240-item grid, about 15 KB), while no single request can
// make a server buffer an unbounded body.
const MaxSweepBodyBytes = 1 << 20

// DecodeSweepRequest reads a POST /sweep body of at most MaxSweepBodyBytes
// and returns, with any error, the status that classifies it: 413 for a
// body over the bound, 400 for one that is not a sweep request or carries
// no items. Both are deterministic rejections, so no router fails them
// over. Exported so the shard router's /sweep bounds and rejects bodies
// exactly like a replica's.
func DecodeSweepRequest(w http.ResponseWriter, r *http.Request) (SweepRequest, int, error) {
	var req SweepRequest
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxSweepBodyBytes)).Decode(&req)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return req, http.StatusRequestEntityTooLarge, fmt.Errorf("sweep request body exceeds %d bytes", tooLarge.Limit)
	case err != nil:
		return req, http.StatusBadRequest, fmt.Errorf("decoding sweep request: %w", err)
	case len(req.Items) == 0:
		return req, http.StatusBadRequest, errors.New("sweep request has no items")
	}
	return req, http.StatusOK, nil
}

// errStatus maps a Service error to its HTTP status: deterministic request
// rejections are 422 (non-retryable — failing over would repeat the
// rejection), internal failures 500 (retryable — another replica may be
// healthy). Before this split every Service error reported 422, so the
// shard router classified transient engine/tuner failures as non-retryable
// QueryErrors and never failed over.
func errStatus(err error) int {
	if IsBadQuery(err) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// ParseQuery decodes a /query request's parameters. It is exported so the
// shard router's front-end parses (and rejects) queries exactly like a
// replica would, instead of forwarding garbage.
func ParseQuery(r *http.Request) (Query, error) {
	vals := r.URL.Query()
	dim := func(name string) (int, error) {
		v, err := strconv.Atoi(vals.Get(name))
		if err != nil || v <= 0 {
			return 0, fmt.Errorf("serve: parameter %q must be a positive integer, got %q", name, vals.Get(name))
		}
		return v, nil
	}
	m, err := dim("m")
	if err != nil {
		return Query{}, err
	}
	n, err := dim("n")
	if err != nil {
		return Query{}, err
	}
	k, err := dim("k")
	if err != nil {
		return Query{}, err
	}
	primName := vals.Get("prim")
	if primName == "" {
		primName = "AR"
	}
	prim, err := ParsePrimitive(primName)
	if err != nil {
		return Query{}, err
	}
	var imbalance float64
	if raw := vals.Get("imbalance"); raw != "" {
		imbalance, err = strconv.ParseFloat(raw, 64)
		// !(x >= 1) also rejects NaN, which would otherwise poison the
		// shape cache (a NaN map key never matches itself).
		if err != nil || !(imbalance >= 1) || math.IsInf(imbalance, 1) {
			return Query{}, fmt.Errorf("serve: parameter \"imbalance\" must be a finite number >= 1, got %q", raw)
		}
	}
	tenant := vals.Get("tenant")
	if err := ValidateTenant(tenant); err != nil {
		return Query{}, err
	}
	return Query{Shape: gemm.Shape{M: m, N: n, K: k}, Prim: prim, Imbalance: imbalance, Tenant: tenant}, nil
}

// bufPool recycles the per-request encode buffers of writeJSON and
// encodeAnswer: request-scoped state the warm path must not allocate fresh
// per reply.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeReply renders v exactly like writeJSON puts it on the wire (two-space
// indent, trailing newline) into a pooled buffer. The caller must hand the
// buffer back via bufPool after copying or writing its bytes.
func encodeReply(v any) (*bytes.Buffer, error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		bufPool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// encodeAnswer pre-renders the /query reply for a tuned key. Source is
// forced to SourceCache: the bytes answer future queries, which by
// definition hit the cache.
func encodeAnswer(q Query, ans Answer) ([]byte, error) {
	buf, err := encodeReply(QueryResponse{
		Shape:       q.Shape.String(),
		Primitive:   q.Prim.String(),
		Partition:   ans.Partition,
		Waves:       ans.Waves,
		PredictedNs: int64(ans.Predicted),
		Source:      SourceCache,
	})
	if err != nil {
		return nil, err
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	bufPool.Put(buf)
	return out, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// Encoding these fixed response types cannot fail; a broken connection
	// surfaces in the server's error log, not here.
	buf, err := encodeReply(v)
	if err != nil {
		return
	}
	_, _ = w.Write(buf.Bytes())
	bufPool.Put(buf)
}
