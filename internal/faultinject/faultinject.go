// Package faultinject is a deterministic fault-injection layer for the
// serving stack's robustness tests: named fault points, each firing by a
// seeded pseudo-random draw (no wall-clock anywhere in the decision path),
// parameterized by probability, fire count, activation delay and injected
// latency. It is dependency-free — the packages that host fault points
// (internal/spool, internal/remote via the Transport below, the registry
// compute path) interpret an Outcome's Mode themselves, so this package
// never imports them.
//
// Everything is off by default: a nil *Set is valid and never fires, so
// production call sites pay one nil check. Tests and `mctopd -faults`
// build a Set from a spec string:
//
//	spool.write:mode=torn,prob=0.3;remote.fetch:mode=truncate,count=5
//
// and cmd/mctopd's chaos tests (TestChaosFleetThroughRun arms a daemon
// with such a -faults spec) assert the serving contract holds while the
// faults fire: correct bytes or honest 5xx, never corruption or hangs.
//
// Determinism: two Sets built with the same seed and spec make identical
// fire/skip decisions for identical Eval sequences. The only time-dependent
// behavior is the *injected* latency itself (Outcome.Delay), which sleeps
// through an injectable sleeper so tests can make it instant.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/rng"
)

// Canonical fault-point names. Points are plain strings — hosts may define
// their own — but the wired-in sites use these.
const (
	// SpoolWrite fires in the spool's write path. Modes: "enospc" and
	// "eperm" fail the write (the spool degrades to read-only until a
	// write succeeds), "torn" lands a half-written file under the final
	// spool name (simulating a crash mid-write on a filesystem without
	// atomic rename), "fail" is a generic write error.
	SpoolWrite = "spool.write"
	// SpoolRead fires in the spool's Get path. Mode "corrupt" makes the
	// entry decode as garbage — the file is quarantined and the Get
	// degrades to a miss.
	SpoolRead = "spool.read"
	// SpoolScan fires once per file during the startup scan. Mode
	// "corrupt" makes the file's header unreadable, quarantining it.
	SpoolScan = "spool.scan"
	// RemoteFetch fires in the Transport wrapping an edge's upstream HTTP
	// client. Modes: "refused" (dial error), "status" (synthesized HTTP
	// error, default 503, see Fault.Status), "truncate" (body cut off
	// mid-stream), "garbage" (body replaced with undecodable bytes),
	// "hang" (blocks until the request context fires), "latency" (delay
	// only, then forward).
	RemoteFetch = "remote.fetch"
	// RegistryInfer fires before a topology inference executes. Modes:
	// "fail" returns an error, "latency"/"slow" delays the compute.
	RegistryInfer = "registry.infer"
	// RegistryMap fires before a task-graph mapping computes. Modes:
	// "fail" returns an error, "latency"/"slow" delays the compute.
	RegistryMap = "registry.map"
)

// ErrInjected is the sentinel every injected failure wraps, so tests and
// logs can tell an injected fault from an organic one.
var ErrInjected = errors.New("injected fault")

// Fault is one rule at one point. The zero Mode means the point's default
// behavior (host-defined); Prob <= 0 means always fire.
type Fault struct {
	// Point names the injection site (see the constants above).
	Point string
	// Mode selects the behavior at the site (host-interpreted).
	Mode string
	// Prob is the per-evaluation fire probability in (0, 1]; <= 0 fires
	// on every evaluation.
	Prob float64
	// Count bounds the total fires of this rule (0 = unlimited).
	Count int
	// After skips the first N evaluations before the rule may fire.
	After int
	// Latency is injected before the behavior (Outcome.Delay).
	Latency time.Duration
	// Status is the HTTP status for Transport's "status" mode (0 = 503).
	Status int
}

// rule is a Fault plus its evaluation counters.
type rule struct {
	f     Fault
	evals int64
	fires int64
}

// Set is a collection of fault rules sharing one deterministic random
// stream. All methods are safe for concurrent use, and every method is a
// no-op on a nil receiver — callers hold a *Set that is nil when fault
// injection is off.
type Set struct {
	mu       sync.Mutex
	rngState uint64 // internal/rng stream state
	rules    map[string][]*rule
	disabled bool
	// sleep implements Outcome.Delay; tests substitute an instant one.
	sleep func(ctx context.Context, d time.Duration) error
}

// New builds a Set firing the given faults, with all randomness derived
// from seed.
func New(seed uint64, faults ...Fault) *Set {
	s := &Set{
		rngState: seed*rng.Increment + rng.Increment, // never zero
		rules:    make(map[string][]*rule),
		sleep:    sleepCtx,
	}
	for _, f := range faults {
		s.Add(f)
	}
	return s
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Add appends rules; rules at one point are evaluated in insertion order
// and the first that fires wins.
func (s *Set) Add(faults ...Fault) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range faults {
		if f.Point == "" {
			continue
		}
		s.rules[f.Point] = append(s.rules[f.Point], &rule{f: f})
	}
}

// Reset removes every rule at every point, leaving the set armed but
// empty — the between-phases reset of a scripted chaos run.
func (s *Set) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rules = make(map[string][]*rule)
}

// SetEnabled turns the whole set on or off at runtime — how a chaos test
// flips between its fault phase and its recovery phase. Counters and the
// random stream are preserved.
func (s *Set) SetEnabled(on bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.disabled = !on
}

// Enable is SetEnabled(true).
func (s *Set) Enable() { s.SetEnabled(true) }

// Disable is SetEnabled(false).
func (s *Set) Disable() { s.SetEnabled(false) }

// Outcome is one fired fault: what the site should do.
type Outcome struct {
	// Mode is the fired rule's behavior selector.
	Mode string
	// Latency is the delay to inject before the behavior.
	Latency time.Duration
	// Status is the HTTP status for "status"-mode transport faults.
	Status int

	set *Set
}

// Delay sleeps the outcome's injected latency, honoring ctx; it returns
// ctx.Err() if the context fires first.
func (o Outcome) Delay(ctx context.Context) error {
	if o.Latency <= 0 {
		return nil
	}
	sleep := sleepCtx
	if o.set != nil && o.set.sleep != nil {
		sleep = o.set.sleep
	}
	return sleep(ctx, o.Latency)
}

// Err renders the outcome as an injected-fault error for sites whose
// behavior is "fail with an error".
func (o Outcome) Err(point string) error {
	mode := o.Mode
	if mode == "" {
		mode = "fail"
	}
	return fmt.Errorf("%w: %s mode=%s", ErrInjected, point, mode)
}

// Eval evaluates the point's rules: the first rule that is active (past
// After, under Count) and wins its probability draw fires. A nil or
// disabled Set, or a point with no rules, never fires — the hot-path cost
// at a quiet point is one nil check and one map lookup.
func (s *Set) Eval(point string) (Outcome, bool) {
	if s == nil {
		return Outcome{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disabled {
		return Outcome{}, false
	}
	for _, r := range s.rules[point] {
		r.evals++
		if r.evals <= int64(r.f.After) {
			continue
		}
		if r.f.Count > 0 && r.fires >= int64(r.f.Count) {
			continue
		}
		if r.f.Prob > 0 && r.f.Prob < 1 && s.rand01() >= r.f.Prob {
			continue
		}
		r.fires++
		return Outcome{Mode: r.f.Mode, Latency: r.f.Latency, Status: r.f.Status, set: s}, true
	}
	return Outcome{}, false
}

// Fires reports how many times rules at the point have fired.
func (s *Set) Fires(point string) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, r := range s.rules[point] {
		n += r.fires
	}
	return n
}

// Points lists the configured points, sorted — what mctopd logs at boot.
func (s *Set) Points() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.rules))
	for p := range s.rules {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// rand01 draws the next [0, 1) value from the seeded stream (s.mu held).
func (s *Set) rand01() float64 {
	z := rng.Mix(s.rngState)
	s.rngState += rng.Increment
	return float64(z>>11) / (1 << 53)
}

// Parse builds a Set from a spec string — the `mctopd -faults` format:
// semicolon-separated rules, each `point:key=value,...` with keys mode,
// prob, count, after, latency (a Go duration) and status:
//
//	spool.write:mode=enospc,prob=0.3;remote.fetch:mode=hang,count=2
func Parse(seed uint64, spec string) (*Set, error) {
	faults, err := ParseFaults(spec)
	if err != nil {
		return nil, err
	}
	return New(seed, faults...), nil
}

// ParseFaults parses the spec grammar without building a Set.
func ParseFaults(spec string) ([]Fault, error) {
	var out []Fault
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		point, params, _ := strings.Cut(part, ":")
		f := Fault{Point: strings.TrimSpace(point)}
		if f.Point == "" {
			return nil, fmt.Errorf("faultinject: rule %q has no point name", part)
		}
		for _, kv := range strings.Split(params, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: %s: bad parameter %q (want key=value)", f.Point, kv)
			}
			var err error
			switch k {
			case "mode":
				f.Mode = v
			case "prob":
				if f.Prob, err = strconv.ParseFloat(v, 64); err != nil || f.Prob < 0 || f.Prob > 1 {
					return nil, fmt.Errorf("faultinject: %s: bad prob %q (want 0..1)", f.Point, v)
				}
			case "count":
				if f.Count, err = strconv.Atoi(v); err != nil || f.Count < 0 {
					return nil, fmt.Errorf("faultinject: %s: bad count %q", f.Point, v)
				}
			case "after":
				if f.After, err = strconv.Atoi(v); err != nil || f.After < 0 {
					return nil, fmt.Errorf("faultinject: %s: bad after %q", f.Point, v)
				}
			case "latency":
				if f.Latency, err = time.ParseDuration(v); err != nil {
					return nil, fmt.Errorf("faultinject: %s: bad latency %q: %v", f.Point, v, err)
				}
			case "status":
				if f.Status, err = strconv.Atoi(v); err != nil || f.Status < 400 || f.Status > 599 {
					return nil, fmt.Errorf("faultinject: %s: bad status %q (want 400..599)", f.Point, v)
				}
			default:
				return nil, fmt.Errorf("faultinject: %s: unknown parameter %q", f.Point, k)
			}
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("faultinject: empty fault spec")
	}
	return out, nil
}

// Transport wraps an http.RoundTripper with the named fault point — how
// the remote tier's upstream fetches are made to fail, stall, or return
// broken bodies without touching internal/remote itself. next may be nil
// (http.DefaultTransport).
func Transport(s *Set, point string, next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &transport{set: s, point: point, next: next}
}

type transport struct {
	set   *Set
	point string
	next  http.RoundTripper
}

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	o, ok := t.set.Eval(t.point)
	if !ok {
		return t.next.RoundTrip(req)
	}
	if err := o.Delay(req.Context()); err != nil {
		return nil, err
	}
	switch o.Mode {
	case "", "refused":
		return nil, fmt.Errorf("%w: %s: connection refused", ErrInjected, t.point)
	case "status":
		status := o.Status
		if status == 0 {
			status = http.StatusServiceUnavailable
		}
		return synthesized(req, status), nil
	case "hang":
		// Block until the request's own deadline/cancel fires: the shape
		// of an origin that accepted the connection and went silent.
		<-req.Context().Done()
		return nil, req.Context().Err()
	case "latency":
		return t.next.RoundTrip(req)
	case "truncate":
		resp, err := t.next.RoundTrip(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			return resp, err
		}
		// Cut the body off mid-header: enough bytes to look like a real
		// response, not enough to decode.
		resp.Body = readCloser{io.LimitReader(resp.Body, 48), resp.Body}
		resp.ContentLength = -1
		return resp, nil
	case "garbage":
		resp, err := t.next.RoundTrip(req)
		if err != nil || resp.StatusCode != http.StatusOK {
			return resp, err
		}
		resp.Body.Close()
		resp.Body = io.NopCloser(strings.NewReader("\x00\x01garbage: not a description file\n"))
		resp.ContentLength = -1
		return resp, nil
	default:
		return nil, o.Err(t.point)
	}
}

// readCloser pairs a limited reader with the original body's Close.
type readCloser struct {
	io.Reader
	io.Closer
}

// synthesized builds an in-memory HTTP error response.
func synthesized(req *http.Request, status int) *http.Response {
	body := fmt.Sprintf("%s\n", http.StatusText(status))
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"text/plain; charset=utf-8"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}
