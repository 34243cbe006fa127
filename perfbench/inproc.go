package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
)

// inproc is the traced run's fleet: the same public constructors cmd/serve
// and cmd/route call (serve.New, Warm, serve.Handler, shard.NewRouter,
// Router.Handler), served on 127.0.0.1 listeners inside this process. With
// a span log, every boundary the benchmark owns records spans; without one
// it is the untraced twin the tracing overhead is measured against.
type inproc struct {
	router  string
	servers []*http.Server
	wg      sync.WaitGroup
}

func startInproc(ctx context.Context, spec fleetSpec, spans *spanLog) (*inproc, error) {
	ip := &inproc{}
	var clients []shard.Client
	for i := 0; i < fleetShards; i++ {
		a, err := shard.ParseAssignment(fmt.Sprintf("%d/%d", i, fleetShards))
		if err != nil {
			return nil, err
		}
		svc, err := serve.New(serve.Config{Plat: fleetPlat(), NGPUs: fleetGPUs, Owns: a.Owns, Shard: a.String()})
		if err != nil {
			return nil, err
		}
		if len(spec.warm) > 0 {
			if err := svc.Warm(ctx, spec.warmPrims, spec.warm, 0); err != nil {
				return nil, err
			}
		}
		var h http.Handler = serve.Handler(svc)
		hc := &http.Client{Timeout: 60 * time.Second}
		if spans != nil {
			h = traceHandler(spans, spanHandler, h)
			hc.Transport = idTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
		}
		url, err := ip.serve(h)
		if err != nil {
			ip.stop()
			return nil, err
		}
		var c shard.Client = &shard.HTTPClient{Base: url, HTTP: hc}
		if spans != nil {
			c = tracedClient{Client: c, log: spans}
		}
		clients = append(clients, c)
	}
	r, err := shard.NewRouter(clients)
	if err != nil {
		ip.stop()
		return nil, err
	}
	var h http.Handler = r.Handler()
	if spans != nil {
		h = traceHandler(spans, spanRouter, h)
	}
	if ip.router, err = ip.serve(h); err != nil {
		ip.stop()
		return nil, err
	}
	client := connClient()
	defer client.CloseIdleConnections()
	for _, q := range spec.extra {
		status, body, err := fetch(ctx, client, ip.router+(Event{Query: q}).path(), 0, false)
		if err != nil || status != http.StatusOK {
			ip.stop()
			return nil, fmt.Errorf("warming %v %v in-process: status %d: %v %s", q.Prim, q.Shape, status, err, body)
		}
	}
	return ip, nil
}

func (ip *inproc) serve(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	ip.servers = append(ip.servers, srv)
	ip.wg.Add(1)
	go func() {
		defer ip.wg.Done()
		_ = srv.Serve(l) // returns http.ErrServerClosed on stop
	}()
	return "http://" + l.Addr().String(), nil
}

// stop shuts every listener down and waits for the servers to return.
func (ip *inproc) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, srv := range ip.servers {
		_ = srv.Shutdown(ctx) // on timeout, Close drops what is left
		_ = srv.Close()
	}
	ip.wg.Wait()
}
