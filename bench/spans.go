package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the ledger pass: a client request and its
// parts, or a call into one layer. Spans of one op share Op; Parent is the
// ID of the span that caused it (0 = none).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing, which is how untraced rounds run the same code.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// nextOp hands out the identifier the spans of one op share.
func (r *recorder) nextOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// start opens a span and returns its ID for end and for children.
func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Name: name, Start: now, Parent: parent, Op: op})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// do times fn as one span.
func (r *recorder) do(name string, parent, op int, fn func()) time.Duration {
	id := r.start(name, parent, op)
	t := time.Now()
	fn()
	d := time.Since(t)
	r.end(id)
	return d
}

// spanSummary is one span name's totals: self time is the span's duration
// minus the part its children cover.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (r *recorder) summary() []spanSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		child[s.Parent] += s.End - s.Start
	}
	byName := map[string]*spanSummary{}
	for _, s := range r.spans {
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalMs += float64(s.End-s.Start) / 1e6
		sum.SelfMs += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write dumps the summary and every span as one JSON document.
func (r *recorder) write(path string) error {
	sum := r.summary()
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(struct {
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{sum, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
