package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
)

// lyingReplica rewrites the partition of every /query reply into another
// partition over the same waves: a replica that answers, fast and well
// formed, with the wrong launch plan.
func lyingReplica(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		var qr serve.QueryResponse
		if r.URL.Path != "/query" || rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &qr) != nil {
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return
		}
		if len(qr.Partition) > 1 {
			qr.Partition = []int{qr.Waves}
		} else {
			qr.Partition = []int{1, qr.Waves - 1}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(qr)
	})
}

// fakeFleet serves two in-process replicas behind a router; lie makes
// replica 0 a lyingReplica.
func fakeFleet(t *testing.T, lie bool) string {
	t.Helper()
	var clients []shard.Client
	for i := 0; i < fleetShards; i++ {
		svc, err := serve.New(serve.Config{Plat: fleetPlat(), NGPUs: fleetGPUs})
		if err != nil {
			t.Fatal(err)
		}
		h := serve.Handler(svc)
		if lie && i == 0 {
			h = lyingReplica(h)
		}
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		clients = append(clients, &shard.HTTPClient{Base: srv.URL})
	}
	r, err := shard.NewRouter(clients)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// smallDecodeEvents asks each small odd decode batch twice, so both tuned
// and cache answers come back; every shape has more than one wave.
func smallDecodeEvents() []Event {
	var evs []Event
	for rep := 0; rep < 2; rep++ {
		for m := 5; m <= 45; m += 4 {
			for _, s := range llamaAROps(m, true) {
				evs = append(evs, Event{Due: time.Duration(len(evs)) * time.Millisecond, Query: serve.Query{Shape: s, Prim: hw.AllReduce}})
			}
		}
	}
	return evs
}

func TestWrongPartitionFailsTheRun(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name string
		lie  bool
	}{{"honest", false}, {"lying", true}} {
		t.Run(c.name, func(t *testing.T) {
			events := smallDecodeEvents()
			samples := openLoop(ctx, fakeFleet(t, c.lie), events, 2, nil)
			owners := [fleetShards]int{}
			for i, s := range samples {
				if s.failed() {
					t.Fatalf("request %d failed: %v %d %s", i, s.err, s.status, s.body)
				}
				owners[shard.NewPartitioner(fleetShards).Owner(events[i].Query.Shape)]++
			}
			if owners[0] == 0 {
				t.Fatal("no event is owned by replica 0")
			}
			v, err := checkDynamic(ctx, events, samples)
			if err != nil {
				t.Fatal(err)
			}
			res := result{Correct: v.wrong == 0, Attempted: len(samples), Failed: v.wrong}
			if c.lie {
				if v.wrong != owners[0] || exitCode(res) == 0 {
					t.Errorf("lying replica answered %d queries, %d flagged wrong, exit code %d", owners[0], v.wrong, exitCode(res))
				}
			} else if v.wrong != 0 || exitCode(res) != 0 {
				t.Errorf("honest fleet: %d wrong answers (%v), exit code %d", v.wrong, v.first, exitCode(res))
			}
		})
	}
}

func TestWarmReplyMismatchIsWrong(t *testing.T) {
	q := serve.Query{Shape: gemm.Shape{M: 64, N: 8192, K: 8192}, Prim: hw.AllReduce}
	events := []Event{{Query: q}}
	want := map[key][]byte{keyOf(q): []byte("expected")}
	if v := checkWarm(events, []sample{{status: http.StatusOK, body: []byte("expected")}}, want); v.wrong != 0 {
		t.Errorf("identical reply flagged wrong: %v", v.first)
	}
	if v := checkWarm(events, []sample{{status: http.StatusOK, body: []byte("expectee")}}, want); v.wrong != 1 {
		t.Errorf("differing reply not flagged")
	}
}
