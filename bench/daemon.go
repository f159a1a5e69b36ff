package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is one benchmark run's footprint on the machine: the repo it
// measures, the mctopd it built, a temp dir and the children it started.
// Everything it creates lives under <root>/.bench_build, so a run reads and
// writes only inside the checkout.
type env struct {
	root   string // the repo: where go.mod says `module repro`
	mctopd string
	tmp    string
	buildS float64

	mu       sync.Mutex
	children map[*daemon]struct{}
	nextLog  int
}

// findRoot walks up from the working directory to the product's module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && bytes.HasPrefix(b, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no `module repro` go.mod above the working directory: run from the repo (go run -C bench .)")
		}
		dir = parent
	}
}

// newEnv builds ./cmd/mctopd once (a no-op relink when .bench_build already
// holds an up-to-date binary) and creates the run's temp dir.
func newEnv(needDaemon bool) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "tmp"), 0o755); err != nil {
		return nil, err
	}
	e := &env{root: root, mctopd: filepath.Join(build, "mctopd"), children: map[*daemon]struct{}{}}
	if needDaemon {
		start := time.Now()
		cmd := exec.Command("go", "build", "-buildvcs=false", "-o", e.mctopd, "./cmd/mctopd")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building ./cmd/mctopd: %v\n%s", err, out)
		}
		e.buildS = time.Since(start).Seconds()
	}
	if e.tmp, err = os.MkdirTemp(filepath.Join(build, "tmp"), "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

// close kills every child still running and removes the temp dir. Safe to
// call twice and from the signal handler.
func (e *env) close() {
	e.mu.Lock()
	children := make([]*daemon, 0, len(e.children))
	for d := range e.children {
		children = append(children, d)
	}
	e.mu.Unlock()
	for _, d := range children {
		d.kill()
	}
	os.RemoveAll(e.tmp)
}

func (e *env) mkdir(name string) (string, error) {
	return os.MkdirTemp(e.tmp, name+"-")
}

// daemon is one running mctopd.
type daemon struct {
	env     *env
	name    string
	cmd     *exec.Cmd
	url     string
	logPath string
	started time.Time
	// readyIn is exec to the first /readyz 200.
	readyIn time.Duration
	exited  chan struct{}
	waitErr error
}

// freeAddr reserves a loopback port by binding :0 and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start execs mctopd on a free port with its output in a log file under
// the temp dir, and waits for /readyz. The port is released before the
// daemon binds it, so a lost race is retried once on a new port.
func (e *env) start(name string, args ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		d, err := e.startOnce(name, args)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func (e *env) startOnce(name string, args []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.nextLog++
	logPath := filepath.Join(e.tmp, fmt.Sprintf("%s-%d.log", name, e.nextLog))
	e.mu.Unlock()
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	d := &daemon{env: e, name: name, url: "http://" + addr, logPath: logPath, exited: make(chan struct{})}
	d.cmd = exec.Command(e.mctopd, append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	e.mu.Lock()
	e.children[d] = struct{}{}
	e.mu.Unlock()
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			e.forget(d)
			return nil, fmt.Errorf("%s exited before it was ready: %v\n%s", name, d.waitErr, d.logTail(20))
		default:
		}
		resp, err := probe.Get(d.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.readyIn = time.Since(d.started)
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("%s was not ready within 15s\n%s", name, d.logTail(20))
}

func (e *env) forget(d *daemon) {
	e.mu.Lock()
	delete(e.children, d)
	e.mu.Unlock()
}

// stop sends SIGTERM (drain + spool flush) and waits for the exit.
func (d *daemon) stop() error {
	defer d.env.forget(d)
	select {
	case <-d.exited:
		return fmt.Errorf("%s had already exited: %v\n%s", d.name, d.waitErr, d.logTail(20))
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		if d.waitErr != nil {
			return fmt.Errorf("%s: %v\n%s", d.name, d.waitErr, d.logTail(20))
		}
		return nil
	case <-time.After(45 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("%s did not exit within 45s of SIGTERM", d.name)
	}
}

func (d *daemon) kill() {
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.env.forget(d)
}

func (d *daemon) logTail(lines int) string {
	b, err := os.ReadFile(d.logPath)
	if err != nil {
		return ""
	}
	all := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return "--- tail of " + d.logPath + "\n" + strings.Join(all, "\n")
}

// peakRSSMB reads VmHWM of a process from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

func (d *daemon) rssMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// scrape is one /metrics exposition: sample line -> value, keyed exactly as
// exposed (`name{label="v",...}`).
type scrape map[string]float64

func (d *daemon) scrape() (scrape, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", d.name, resp.Status)
	}
	out := scrape{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("%s /metrics: bad sample %q", d.name, line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after - before for one sample (absent = 0).
func delta(before, after scrape, key string) float64 { return after[key] - before[key] }

// sumDelta sums the deltas of every sample whose key starts with prefix.
func sumDelta(before, after scrape, prefix string) float64 {
	var s float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			s += v - before[k]
		}
	}
	return s
}

func servedDelta(before, after scrape, tier string) float64 {
	return delta(before, after, `mctopd_requests_served_by_tier_total{tier="`+tier+`"}`)
}

// daemonSpans aggregates the daemon's retained traces by span name: the
// minimal decoder of /v1/debug/traces?format=ndjson (name + duration).
func (d *daemon) spanMeans() (map[string]float64, error) {
	resp, err := http.Get(d.url + "/v1/debug/traces?format=ndjson")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /v1/debug/traces: %s", d.name, resp.Status)
	}
	sum, n := map[string]float64{}, map[string]float64{}
	dec := json.NewDecoder(resp.Body)
	for {
		var tr struct {
			Spans []struct {
				Name     string `json:"name"`
				Duration int64  `json:"durationNano"`
			} `json:"spans"`
		}
		if err := dec.Decode(&tr); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s /v1/debug/traces: %w", d.name, err)
		}
		for _, s := range tr.Spans {
			sum[s.Name] += float64(s.Duration)
			n[s.Name]++
		}
	}
	for name := range sum {
		sum[name] /= n[name]
	}
	return sum, nil
}
