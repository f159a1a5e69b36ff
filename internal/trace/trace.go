// Package trace is a dependency-free span plane for the serving stack, in
// the spirit of internal/metrics: no third-party imports, atomics and plain
// mutexes, and a strict parser (export.go) so tests can round-trip what the
// daemon exposes.
//
// The model is deliberately small. A Tracer hands out Spans; the first span
// of a request is its local root, children ride the context. IDs come from
// a seeded splitmix64 stream, never the wall clock, so chaos tests replay
// identically. Sampling is head-based — the keep/drop decision is made when
// the root starts and propagates downstream via the W3C traceparent header —
// but a trace that turns out to contain an error, or to run past the slow
// threshold, is kept retroactively regardless of the head decision.
// Finished traces land in a bounded ring the daemon serves at
// /v1/debug/traces.
//
// Everything is nil-safe: a nil *Tracer and a nil *Span accept every call
// and do nothing, so instrumented code never guards call sites.
package trace

import (
	"context"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// TraceID is the 16-byte W3C trace ID shared by every span of one trace,
// across daemons.
type TraceID [16]byte

// SpanID is the 8-byte W3C span ID.
type SpanID [8]byte

func (id TraceID) String() string { return hex.EncodeToString(id[:]) }
func (id TraceID) IsZero() bool   { return id == TraceID{} }
func (id SpanID) String() string  { return hex.EncodeToString(id[:]) }
func (id SpanID) IsZero() bool    { return id == SpanID{} }

// Attr is one key/value annotation on a span. Values are strings —
// SetInt/SetBool format for you — which keeps the exposition and its strict
// parser trivial.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Event is a point-in-time marker inside a span, stored as an offset from
// the span's start.
type Event struct {
	Name       string `json:"name"`
	OffsetNano int64  `json:"offsetNano"`
}

// SpanData is one finished span as exposed at /v1/debug/traces.
type SpanData struct {
	TraceID  string  `json:"traceID"`
	SpanID   string  `json:"spanID"`
	Parent   string  `json:"parent,omitempty"`
	Name     string  `json:"name"`
	Remote   bool    `json:"remote,omitempty"`
	Start    int64   `json:"startUnixNano"`
	Duration int64   `json:"durationNano"`
	Error    string  `json:"error,omitempty"`
	Attrs    []Attr  `json:"attrs,omitempty"`
	Events   []Event `json:"events,omitempty"`
}

// TraceData is one finished, kept trace: the local root first, then its
// descendants in the order they ended.
type TraceData struct {
	TraceID string     `json:"traceID"`
	Dropped int        `json:"droppedSpans,omitempty"`
	Spans   []SpanData `json:"spans"`
}

// maxSpansPerTrace bounds one trace's span collection; past it spans still
// balance Start/End but their data is dropped and counted.
const maxSpansPerTrace = 256

// TracerStats is the balance sheet chaos tests assert on.
type TracerStats struct {
	// Started and Ended count spans; a healthy run ends every span it
	// starts exactly once.
	Started int64 `json:"started"`
	Ended   int64 `json:"ended"`
	// Kept counts traces that reached the ring; Dropped counts spans lost
	// to the per-trace bound or ended after their root.
	Kept    int64 `json:"kept"`
	Dropped int64 `json:"dropped"`
	// RingLen is the current number of traces held, never above the
	// configured ring size.
	RingLen int `json:"ringLen"`
}

// Tracer owns ID generation, the sampling decision and the finished-trace
// ring. The zero value is unusable; construct with New.
type Tracer struct {
	rate float64
	slow time.Duration
	size int
	now  func() time.Time

	idState atomic.Uint64

	started atomic.Int64
	ended   atomic.Int64
	kept    atomic.Int64
	dropped atomic.Int64

	mu   sync.Mutex
	ring []TraceData // circular once full
	next int         // write index
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithSampleRate sets the head-sampling rate in [0, 1]. 0 disables the
// tracer entirely — no spans are created, Start returns nil — which is the
// contract behind "tracing off costs nothing". 1 keeps everything.
func WithSampleRate(r float64) Option { return func(t *Tracer) { t.rate = r } }

// WithSlowThreshold keeps any trace whose root runs at least d, regardless
// of the head decision. 0 disables the slow keep rule.
func WithSlowThreshold(d time.Duration) Option { return func(t *Tracer) { t.slow = d } }

// WithRingSize bounds the finished-trace ring (default 128).
func WithRingSize(n int) Option { return func(t *Tracer) { t.size = n } }

// WithSeed seeds the splitmix64 ID stream, making trace/span IDs a pure
// function of the seed and the call sequence.
func WithSeed(s uint64) Option { return func(t *Tracer) { t.idState.Store(s) } }

// WithClock substitutes the wall clock (tests).
func WithClock(now func() time.Time) Option { return func(t *Tracer) { t.now = now } }

// New builds a Tracer. With no options it is disabled (sample rate 0) but
// still generates request IDs.
func New(opts ...Option) *Tracer {
	t := &Tracer{size: 128, now: time.Now}
	t.idState.Store(1)
	for _, o := range opts {
		o(t)
	}
	if t.size < 1 {
		t.size = 1
	}
	return t
}

// Enabled reports whether this tracer creates spans at all.
func (t *Tracer) Enabled() bool { return t != nil && t.rate > 0 }

// next64 advances the seeded splitmix64 stream — the same generator the
// measurement noise and remote jitter use, so IDs are deterministic and
// cheap (one atomic add). Add returns the advanced state; Mix takes the one
// before it.
func (t *Tracer) next64() uint64 {
	return rng.Mix(t.idState.Add(rng.Increment) - rng.Increment)
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	for id.IsZero() { // all-zero is invalid per W3C; practically one loop
		hi, lo := t.next64(), t.next64()
		for i := 0; i < 8; i++ {
			id[i] = byte(hi >> (56 - 8*i))
			id[8+i] = byte(lo >> (56 - 8*i))
		}
	}
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		v := t.next64()
		for i := 0; i < 8; i++ {
			id[i] = byte(v >> (56 - 8*i))
		}
	}
	return id
}

// RequestID returns a fresh 16-hex-digit ID from the seeded stream. It
// works on a disabled tracer — request IDs outlive the sampling decision —
// and on a nil one (constant fallback, tests only).
func (t *Tracer) RequestID() string {
	if t == nil {
		return "0000000000000000"
	}
	var b [8]byte
	v := t.next64()
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (56 - 8*i))
	}
	return hex.EncodeToString(b[:])
}

// sample makes the head decision for a fresh root.
func (t *Tracer) sample() bool {
	if t.rate >= 1 {
		return true
	}
	return float64(t.next64()>>11)/(1<<53) < t.rate
}

// Stats snapshots the balance counters.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	t.mu.Lock()
	n := len(t.ring)
	t.mu.Unlock()
	return TracerStats{
		Started: t.started.Load(),
		Ended:   t.ended.Load(),
		Kept:    t.kept.Load(),
		Dropped: t.dropped.Load(),
		RingLen: n,
	}
}

// Snapshot copies the ring, oldest trace first.
func (t *Tracer) Snapshot() []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceData, 0, len(t.ring))
	if len(t.ring) == t.size {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

func (t *Tracer) keepTrace(td TraceData) {
	t.kept.Add(1)
	t.mu.Lock()
	if len(t.ring) < t.size {
		t.ring = append(t.ring, td)
		t.next = len(t.ring) % t.size
	} else {
		t.ring[t.next] = td
		t.next = (t.next + 1) % t.size
	}
	t.mu.Unlock()
}

// rootState is the per-local-root collector every span of the request
// shares: finished children accumulate here until the root ends and the
// keep decision is made.
type rootState struct {
	mu       sync.Mutex
	done     bool
	anyError bool
	spans    []SpanData
	dropped  int
}

// Span is one timed operation. All methods are nil-safe and, after Start,
// safe for concurrent use.
type Span struct {
	tracer  *Tracer
	root    *rootState
	traceID TraceID
	id      SpanID
	parent  SpanID
	name    string
	start   time.Time
	sampled bool
	remote  bool
	isRoot  bool

	mu     sync.Mutex
	ended  bool
	errmsg string
	attrs  []Attr
	events []Event
}

type ctxKey struct{}

// ContextWithSpan returns ctx carrying s.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Start opens a child of the span in ctx. With no span in ctx it is a
// no-op returning (ctx, nil) — instrumented packages call it
// unconditionally and pay one context lookup when tracing is off.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tracer.newSpan(name, parent.traceID, parent.id, parent.root, parent.sampled)
	return ContextWithSpan(ctx, s), s
}

// Start opens a span: a child when ctx already carries one, otherwise a
// fresh local root (the spool's background writer uses this — its work has
// no request context). Returns (ctx, nil) when the tracer is disabled.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if s := SpanFromContext(ctx); s != nil {
		return Start(ctx, name)
	}
	if !t.Enabled() {
		return ctx, nil
	}
	s := t.newSpan(name, t.newTraceID(), SpanID{}, nil, t.sample())
	s.isRoot = true
	s.root = &rootState{}
	return ContextWithSpan(ctx, s), s
}

// StartRoot opens the local root for an incoming request, honoring an
// inbound W3C traceparent header when one parses: the remote trace ID and
// parent span ID stitch this daemon's spans into the caller's trace, and
// the remote sampled flag overrides the local head decision. With an empty
// or malformed header the root gets a fresh trace ID and a local decision.
func (t *Tracer) StartRoot(ctx context.Context, name, traceparent string) (context.Context, *Span) {
	if !t.Enabled() {
		return ctx, nil
	}
	var s *Span
	if tid, pid, sampled, ok := ParseTraceparent(traceparent); ok {
		s = t.newSpan(name, tid, pid, nil, sampled)
		s.remote = true
	} else {
		s = t.newSpan(name, t.newTraceID(), SpanID{}, nil, t.sample())
	}
	s.isRoot = true
	s.root = &rootState{}
	return ContextWithSpan(ctx, s), s
}

func (t *Tracer) newSpan(name string, tid TraceID, parent SpanID, root *rootState, sampled bool) *Span {
	t.started.Add(1)
	return &Span{
		tracer:  t,
		root:    root,
		traceID: tid,
		id:      t.newSpanID(),
		parent:  parent,
		name:    name,
		start:   t.now(),
		sampled: sampled,
	}
}

// TraceIDString returns the span's trace ID in hex ("" on nil).
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.traceID.String()
}

// SpanIDString returns the span's ID in hex ("" on nil).
func (s *Span) SpanIDString() string {
	if s == nil {
		return ""
	}
	return s.id.String()
}

// Sampled reports the propagated head decision.
func (s *Span) Sampled() bool { return s != nil && s.sampled }

// Traceparent renders the header to send downstream so the next daemon's
// spans join this trace.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.traceID, s.id, s.sampled)
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int64) { s.SetAttr(key, strconv.FormatInt(v, 10)) }

// SetBool annotates the span with a boolean value.
func (s *Span) SetBool(key string, v bool) { s.SetAttr(key, strconv.FormatBool(v)) }

// AddEvent records a point-in-time marker at now, as an offset from the
// span's start.
func (s *Span) AddEvent(name string) {
	if s == nil {
		return
	}
	off := s.tracer.now().Sub(s.start).Nanoseconds()
	s.mu.Lock()
	if !s.ended {
		s.events = append(s.events, Event{Name: name, OffsetNano: off})
	}
	s.mu.Unlock()
}

// SetError marks the span failed. A nil error is a no-op, so call sites
// pass their return error unconditionally. An errored span forces its whole
// trace to be kept.
func (s *Span) SetError(err error) {
	if err != nil {
		s.SetStatus(err.Error())
	}
}

// SetStatus marks the span failed with a message ("" is a no-op).
func (s *Span) SetStatus(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.errmsg = msg
	}
	s.mu.Unlock()
}

// End finishes the span. The first call wins; later calls (and calls on
// nil) do nothing, so every code path may End defensively. Ending the local
// root seals the trace: the keep rule runs (head-sampled, any error
// anywhere in the trace, or root duration past the slow threshold) and a
// kept trace enters the ring. Children ending after their root balance the
// counters but their data is dropped.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	t := s.tracer
	dur := t.now().Sub(s.start)
	if dur < 0 {
		dur = 0
	}
	data := SpanData{
		TraceID:  s.traceID.String(),
		SpanID:   s.id.String(),
		Name:     s.name,
		Remote:   s.remote,
		Start:    s.start.UnixNano(),
		Duration: dur.Nanoseconds(),
		Error:    s.errmsg,
		Attrs:    s.attrs,
		Events:   s.events,
	}
	if !s.parent.IsZero() {
		data.Parent = s.parent.String()
	}
	s.mu.Unlock()
	t.ended.Add(1)

	rs := s.root
	rs.mu.Lock()
	if rs.done {
		rs.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	if data.Error != "" {
		rs.anyError = true
	}
	if !s.isRoot {
		if len(rs.spans) < maxSpansPerTrace-1 {
			rs.spans = append(rs.spans, data)
		} else {
			rs.dropped++
			t.dropped.Add(1)
		}
		rs.mu.Unlock()
		return
	}
	rs.done = true
	anyErr := rs.anyError
	droppedHere := rs.dropped
	spans := make([]SpanData, 0, len(rs.spans)+1)
	spans = append(spans, data)
	spans = append(spans, rs.spans...)
	rs.mu.Unlock()

	keep := s.sampled || anyErr || (t.slow > 0 && dur >= t.slow)
	if keep {
		t.keepTrace(TraceData{TraceID: data.TraceID, Dropped: droppedHere, Spans: spans})
	}
}

const traceparentLen = 2 + 1 + 32 + 1 + 16 + 1 + 2 // 00-<trace>-<span>-<flags>

// FormatTraceparent renders a version-00 W3C traceparent header.
func FormatTraceparent(tid TraceID, sid SpanID, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + tid.String() + "-" + sid.String() + "-" + flags
}

// ParseTraceparent strictly parses a version-00 traceparent header:
// lowercase hex, exact lengths, non-zero IDs. ok is false on anything else.
func ParseTraceparent(h string) (tid TraceID, sid SpanID, sampled bool, ok bool) {
	if len(h) != traceparentLen || h[0:3] != "00-" || h[35] != '-' || h[52] != '-' {
		return tid, sid, false, false
	}
	if !decodeLowerHex(tid[:], h[3:35]) || !decodeLowerHex(sid[:], h[36:52]) {
		return tid, sid, false, false
	}
	if tid.IsZero() || sid.IsZero() {
		return tid, sid, false, false
	}
	var flags [1]byte
	if !decodeLowerHex(flags[:], h[53:55]) {
		return tid, sid, false, false
	}
	return tid, sid, flags[0]&1 == 1, true
}

// decodeLowerHex decodes exactly len(dst)*2 lowercase hex digits.
func decodeLowerHex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) {
		return false
	}
	for i := range dst {
		hi, ok1 := lowerHexVal(s[2*i])
		lo, ok2 := lowerHexVal(s[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func lowerHexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	}
	return 0, false
}

// String implements fmt.Stringer for debugging; it is not the exposition
// format (see WriteJSON/WriteNDJSON).
func (s *Span) String() string {
	if s == nil {
		return "<nil span>"
	}
	return fmt.Sprintf("span %s/%s %q", s.traceID, s.id, s.name)
}
