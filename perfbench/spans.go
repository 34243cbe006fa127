package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
)

// Span names, one per boundary the benchmark wraps.
const (
	spanRequest     = "workload.request" // generator: due time to reply (root)
	spanRouter      = "shard.router"     // middleware around Router.Handler
	spanClientQuery = "shard.client.query"
	spanClientSweep = "shard.client.sweep" // one per chunk
	spanHandler     = "serve.handler"      // middleware around serve.Handler
)

// spanHeader carries a request's span ID over HTTP: from the generator to
// the router, and from the router's replica clients to the replicas.
const spanHeader = "X-Bench-Span"

type span struct {
	id         uint64
	name       string
	start, end time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a span. ID 0 marks a request outside the measured traffic
// (a warm-up request), which records nothing.
func (l *spanLog) add(id uint64, name string, start, end time.Time) {
	if id == 0 {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{id: id, name: name, start: start, end: end})
	l.mu.Unlock()
}

type spanIDKey struct{}

func withSpanID(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanIDKey{}, id)
}

func spanIDOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanIDKey{}).(uint64)
	return id
}

// traceHandler records a span named name around next, under the ID the
// request's spanHeader carries, and puts that ID in the request context so
// the calls next makes can carry it on.
func traceHandler(l *spanLog, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r.WithContext(withSpanID(r.Context(), id)))
		l.add(id, name, start, time.Now())
	})
}

// idTransport copies the context's span ID into spanHeader, so a replica's
// traceHandler files its span under the router request that caused it.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := spanIDOf(r.Context()); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	return t.base.RoundTrip(r)
}

// tracedClient records a span around each call into a replica client.
type tracedClient struct {
	shard.Client
	log *spanLog
}

func (c tracedClient) Query(ctx context.Context, q serve.Query) (serve.Answer, error) {
	start := time.Now()
	ans, err := c.Client.Query(ctx, q)
	c.log.add(spanIDOf(ctx), spanClientQuery, start, time.Now())
	return ans, err
}

func (c tracedClient) Sweep(ctx context.Context, req serve.SweepRequest, sink serve.SweepSink) error {
	start := time.Now()
	err := c.Client.Sweep(ctx, req, sink)
	c.log.add(spanIDOf(ctx), spanClientSweep, start, time.Now())
	return err
}

// index groups the spans by request ID.
func (l *spanLog) index() map[uint64][]span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[uint64][]span{}
	for _, s := range l.spans {
		out[s.id] = append(out[s.id], s)
	}
	return out
}

// durations returns the sorted durations of the spans called name.
func (l *spanLog) durations(name string, unit time.Duration) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	sort.Float64s(out)
	return out
}

// selfTime is parent's duration minus the part of it that children cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	covered := time.Duration(0)
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				covered += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return parent.dur() - covered
}

// routerBreakdown splits each router span into its self time and its
// replica hops (client spans under the same ID).
func (l *spanLog) routerBreakdown() (self []float64, hops []float64) {
	for _, group := range l.index() {
		var children []span
		var routers []span
		for _, s := range group {
			switch s.name {
			case spanRouter:
				routers = append(routers, s)
			case spanClientQuery, spanClientSweep:
				children = append(children, s)
			}
		}
		for _, r := range routers {
			self = append(self, float64(selfTime(r, children))/float64(time.Microsecond))
			hops = append(hops, float64(len(children)))
		}
	}
	sort.Float64s(self)
	return self, hops
}
