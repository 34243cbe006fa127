package main

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one open-loop request. Times are offsets from the run start.
type sample struct {
	due, sent, done time.Duration
	// wake is when the worker that sent the request was ready for it: the
	// due time, or later when every connection was still busy.
	wake    time.Duration
	backlog int // requests already due but not yet sent when this one was sent
	status  int
	body    []byte
	err     error
}

// latency is measured from the due time, so time a request spent waiting
// for a free connection — the backlog a stall leaves behind — counts.
func (s sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator itself sent the request: time from the
// moment a free worker should have sent it to the send. Waiting for a busy
// connection is not lag; it is the backlog, and latency counts it.
func (s sample) lag() time.Duration { return s.sent - s.wake }

func (s sample) failed() bool { return s.err != nil || s.status != http.StatusOK }

// sleepUntil blocks the calling thread until t. It sleeps in nanosleep(2)
// rather than the Go timer, whose netpoller rounds sub-millisecond waits
// up to a whole millisecond and would make the generator itself late.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR just re-enters the loop
	}
}

// connClient is an HTTP client holding at most one connection: one
// generator worker is one connection.
func connClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// openLoop sends events to base on their schedule from workers connections
// and returns one sample per event, in event order. A worker takes the next
// unsent event, waits for its due time, sends it and reads the whole reply;
// when every worker is busy, due events wait and the wait is counted. With
// spans set, each request carries its span ID and the generator records the
// root span from due time to reply.
func openLoop(ctx context.Context, base string, events []Event, workers int, spans *spanLog) []sample {
	n := len(events)
	paths := make([]string, n)
	dues := make([]time.Duration, n)
	for i, ev := range events {
		paths[i], dues[i] = base+ev.path(), ev.Due
	}
	out := make([]sample, n)
	var next, sent atomic.Int64
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := connClient()
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				wake := max(dues[i], time.Since(start))
				sleepUntil(start.Add(dues[i]))
				s := sample{due: dues[i], wake: wake, sent: time.Since(start)}
				dueNow := sort.Search(n, func(j int) bool { return dues[j] > s.sent })
				s.backlog = max(0, dueNow-int(sent.Add(1)))
				s.status, s.body, s.err = fetch(ctx, client, paths[i], uint64(i+1), spans != nil)
				s.done = time.Since(start)
				out[i] = s
				if spans != nil {
					spans.add(uint64(i+1), spanRequest, start.Add(s.due), start.Add(s.done))
				}
			}
		}()
	}
	wg.Wait()
	return out
}

func fetch(ctx context.Context, client *http.Client, url string, id uint64, traced bool) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if traced {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// sweepRun is one streamed /sweep. Times are offsets from its POST.
type sweepRun struct {
	elapsed     time.Duration   // until the terminal frame
	firstResult time.Duration   // until the first result frame
	arrivals    []time.Duration // per result frame
	results     [][]byte        // raw result frames, in arrival order
	terminal    []byte          // the done or error frame
	bytes       int64           // body bytes received
	status      int
	err         error
}

var resultPrefix = []byte(`{"frame":"result"`)

// closedLoop posts body as a v2 streamed sweep to base's /sweep, one at a
// time, starting new sweeps until d has passed. Frames are kept raw and
// decoded only after the loop, so client-side decoding never delays the
// next sweep.
func closedLoop(ctx context.Context, base string, body []byte, d time.Duration, spans *spanLog) []sweepRun {
	client := connClient()
	defer client.CloseIdleConnections()
	var runs []sweepRun
	start := time.Now()
	for id := uint64(1); time.Since(start) < d && ctx.Err() == nil; id++ {
		runs = append(runs, postSweep(ctx, client, base, body, id, spans))
	}
	return runs
}

func postSweep(ctx context.Context, client *http.Client, base string, body []byte, id uint64, spans *spanLog) sweepRun {
	var run sweepRun
	t0 := time.Now()
	defer func() {
		if spans != nil {
			spans.add(id, spanRequest, t0, time.Now())
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/sweep", bytes.NewReader(body))
	if err != nil {
		run.err = err
		return run
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	if spans != nil {
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		run.err = err
		return run
	}
	defer resp.Body.Close()
	run.status = resp.StatusCode
	rd := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := rd.ReadBytes('\n')
		run.bytes += int64(len(line))
		if len(line) > 0 {
			at := time.Since(t0)
			if bytes.HasPrefix(line, resultPrefix) {
				if len(run.results) == 0 {
					run.firstResult = at
				}
				run.arrivals = append(run.arrivals, at)
				run.results = append(run.results, line)
			} else {
				run.terminal = line
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			run.err = err
			break
		}
	}
	run.elapsed = time.Since(t0)
	return run
}
