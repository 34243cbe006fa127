package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/gemm"
	"repro/internal/hw"
	"repro/internal/serve"
	"repro/internal/shard"
)

// fleetSpec is what one workload warms the fleet with.
type fleetSpec struct {
	warm      []gemm.Shape   // cmd/serve -warm
	warmPrims []hw.Primitive // cmd/serve -warm-prims
	extra     []serve.Query  // keys -warm cannot express, warmed by one request each
}

// proc is one fleet process.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// fleet is a running cmd/route in front of fleetShards cmd/serve replicas,
// all on 127.0.0.1.
type fleet struct {
	procs  []*proc  // replicas in shard order, then the router
	addrs  []string // listen address of each process, in the same order
	router string   // router base URL
	client *http.Client
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is 100
// on every Linux ABI.
const clockTick = 10 * time.Millisecond

func freePorts(n int) ([]int, error) {
	var ports []int
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

func startProc(bin, logDir, name string, args ...string) (*proc, error) {
	f, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// The fleet must not outlive the benchmark, even when it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: f, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// startFleet launches a fresh fleet and returns once the router reports
// every replica healthy and every key of spec is answerable; the returned
// duration is that set-up time, measured from the first exec.
func startFleet(ctx context.Context, binDir, logDir string, spec fleetSpec) (*fleet, time.Duration, error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, 0, err
	}
	ports, err := freePorts(fleetShards + 1)
	if err != nil {
		return nil, 0, err
	}
	f := &fleet{
		router: fmt.Sprintf("http://127.0.0.1:%d", ports[fleetShards]),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	start := time.Now()
	for _, p := range ports {
		f.addrs = append(f.addrs, fmt.Sprintf("127.0.0.1:%d", p))
	}
	var urls []string
	for i := 0; i < fleetShards; i++ {
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-shard", fmt.Sprintf("%d/%d", i, fleetShards),
			"-gpus", strconv.Itoa(fleetGPUs),
		}
		if len(spec.warm) > 0 {
			args = append(args, "-warm", shapeList(spec.warm), "-warm-prims", primList(spec.warmPrims))
		}
		p, err := startProc(filepath.Join(binDir, "serve"), logDir, fmt.Sprintf("serve-%d", i), args...)
		if err != nil {
			f.stop()
			return nil, 0, err
		}
		f.procs = append(f.procs, p)
		urls = append(urls, fmt.Sprintf("http://127.0.0.1:%d", ports[i]))
	}
	p, err := startProc(filepath.Join(binDir, "route"), logDir, "route",
		"-addr", fmt.Sprintf("127.0.0.1:%d", ports[fleetShards]), "-replicas", strings.Join(urls, ","))
	if err != nil {
		f.stop()
		return nil, 0, err
	}
	f.procs = append(f.procs, p)
	if err := f.waitReady(ctx); err != nil {
		f.stop()
		return nil, 0, err
	}
	for _, q := range spec.extra {
		status, body, err := fetch(ctx, f.client, f.router+(Event{Query: q}).path(), 0, false)
		if err != nil || status != http.StatusOK {
			f.stop()
			return nil, 0, fmt.Errorf("warming %v %v: status %d: %v %s", q.Prim, q.Shape, status, err, body)
		}
	}
	return f, time.Since(start), nil
}

// readyPoll is how often waitReady tries the fleet's listeners. A set-up
// without -warm work lasts about 15 ms, so a coarser poll would round
// setup_s by a large share of its value; a refused connect on 127.0.0.1
// costs microseconds, so polling this often takes little from the
// processes starting up.
const readyPoll = 500 * time.Microsecond

// waitReady returns once every fleet process accepts connections and the
// router's /stats then reports every replica reachable and healthy.
// cmd/serve binds its listener only after -warm has finished, so a
// reachable replica is a warm one.
func (f *fleet) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(120 * time.Second)
	up := make([]bool, len(f.addrs))
	var err error
	for {
		for _, p := range f.procs {
			select {
			case <-p.done:
				return fmt.Errorf("%s exited during set-up: %v (see %s)", p.name, p.err, p.log.Name())
			default:
			}
		}
		listening := true
		for i, addr := range f.addrs {
			if up[i] {
				continue
			}
			var c net.Conn
			if c, err = net.DialTimeout("tcp", addr, time.Second); err != nil {
				listening = false
				continue
			}
			c.Close()
			up[i] = true
		}
		if listening {
			var st shard.RouterStats
			if st, err = f.stats(ctx); err == nil && healthy(st) {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not ready after 120s: %v", err)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		sleepUntil(time.Now().Add(readyPoll))
	}
}

func healthy(st shard.RouterStats) bool {
	if len(st.PerShard) != fleetShards {
		return false
	}
	for _, rs := range st.PerShard {
		if rs.Error != "" || rs.Health != "healthy" {
			return false
		}
	}
	return true
}

// stats reads the router's merged /stats.
func (f *fleet) stats(ctx context.Context) (shard.RouterStats, error) {
	var st shard.RouterStats
	status, body, err := fetch(ctx, f.client, f.router+"/stats", 0, false)
	if err != nil {
		return st, err
	}
	if status != http.StatusOK {
		return st, fmt.Errorf("router /stats: status %d", status)
	}
	err = json.Unmarshal(body, &st)
	return st, err
}

// cpu returns the CPU time (user + system) the router and the replicas
// have used so far.
func (f *fleet) cpu() (router, replicas time.Duration, err error) {
	for i, p := range f.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, 0, err
		}
		// Fields after the parenthesised command name; utime and stime
		// are fields 14 and 15 of the whole line.
		rest := raw[bytes.LastIndexByte(raw, ')')+2:]
		fields := strings.Fields(string(rest))
		if len(fields) < 13 {
			return 0, 0, fmt.Errorf("short /proc stat for %s", p.name)
		}
		ut, err1 := strconv.ParseInt(fields[11], 10, 64)
		st, err2 := strconv.ParseInt(fields[12], 10, 64)
		if err := errors.Join(err1, err2); err != nil {
			return 0, 0, err
		}
		d := time.Duration(ut+st) * clockTick
		if i == fleetShards {
			router += d
		} else {
			replicas += d
		}
	}
	return router, replicas, nil
}

// peakRSS returns the sum of the fleet processes' VmHWM, in bytes.
func (f *fleet) peakRSS() (int64, error) {
	var total int64
	for _, p := range f.procs {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
				if err != nil {
					return 0, err
				}
				total += kb << 10
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM for %s", p.name)
		}
	}
	return total, nil
}

// stop terminates every fleet process and waits until each has been
// reaped: SIGTERM first (graceful drain), SIGKILL after 5s.
func (f *fleet) stop() {
	for _, p := range f.procs {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, p := range f.procs {
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
		p.log.Close()
	}
	f.procs = nil
}
