package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// The four request classes of the daemon workloads, by route.
const (
	classTopology = iota
	classPlace
	classBatch
	classMap
	numClasses
)

var classNames = [numClasses]string{"topology", "place", "batch", "map"}

// target is one distinct request: a method, a path and a body the daemon
// sees, plus what the benchmark needs to check the answer. Targets are
// materialised before any timing starts; an op is an index into them.
type target struct {
	class  int
	method string
	path   string // path + query, joined to a daemon's base URL per op
	body   []byte
	// What a correct answer looks like.
	platform string
	threads  []int // requested placement lengths (one for place, 8 for batch)
	dag      *dag
}

func queryOf(k keySpec) url.Values {
	q := url.Values{"platform": {k.Platform}, "seed": {strconv.FormatUint(k.Seed, 10)}}
	if k.Reps != 0 {
		q.Set("reps", strconv.Itoa(k.Reps))
	}
	if k.Sampling {
		q.Set("sampling", "1")
	}
	return q
}

// targetOf turns a key into the single request that asks for it.
func targetOf(k keySpec) target {
	switch k.Kind {
	case kindPlacement:
		q := queryOf(k)
		q.Set("policy", k.Policy)
		q.Set("threads", strconv.Itoa(k.Threads))
		return target{class: classPlace, method: http.MethodGet, path: "/v1/place?" + q.Encode(), platform: k.Platform, threads: []int{k.Threads}}
	case kindMapping:
		body, _ := json.Marshal(map[string]any{"platform": k.Platform, "seed": k.Seed, "reps": k.Reps, "refine": k.Refine, "dag": k.DAG})
		return target{class: classMap, method: http.MethodPost, path: "/v1/map", body: body, platform: k.Platform, dag: k.DAG}
	}
	return target{class: classTopology, method: http.MethodGet, path: "/v1/topology?" + queryOf(k).Encode(), platform: k.Platform}
}

// batchTarget asks for several placements of one topology in one POST.
func batchTarget(items []keySpec) target {
	type item struct {
		Policy  string `json:"policy"`
		Threads int    `json:"threads"`
	}
	reqs := make([]item, len(items))
	t := target{class: classBatch, method: http.MethodPost, path: "/v1/place/batch", platform: items[0].Platform}
	for i, k := range items {
		reqs[i] = item{k.Policy, k.Threads}
		t.threads = append(t.threads, k.Threads)
	}
	t.body, _ = json.Marshal(map[string]any{"platform": items[0].Platform, "seed": items[0].Seed, "reps": items[0].Reps, "requests": reqs})
	return t
}

// normalise drops the two per-request fields of a response (`served_in`,
// `cached`); the daemon indents its JSON, so each is a line of its own.
func normalise(dst, body []byte) []byte {
	dst = dst[:0]
	for len(body) > 0 {
		line := body
		if i := bytes.IndexByte(body, '\n'); i >= 0 {
			line, body = body[:i+1], body[i+1:]
		} else {
			body = nil
		}
		field := bytes.TrimLeft(line, " ")
		if bytes.HasPrefix(field, []byte(`"served_in":`)) || bytes.HasPrefix(field, []byte(`"cached":`)) {
			continue
		}
		dst = append(dst, line...)
	}
	return dst
}

// distinctInRange reports whether ctxs are n distinct contexts of a
// machine with `contexts` of them.
func distinctInRange(ctxs []int, n, contexts int) error {
	if len(ctxs) != n {
		return fmt.Errorf("%d contexts, want %d", len(ctxs), n)
	}
	seen := make(map[int]bool, len(ctxs))
	for _, c := range ctxs {
		if c < 0 || c >= contexts || seen[c] {
			return fmt.Errorf("context %d out of range [0,%d) or repeated", c, contexts)
		}
		seen[c] = true
	}
	return nil
}

// checkStructure is the structural check of one response against what was
// asked: run once per distinct target, after which byte equality with that
// first answer is the check.
func (t *target) checkStructure(body []byte) error {
	contexts, cores, sockets, err := platformDims(t.platform)
	if err != nil {
		return err
	}
	switch t.class {
	case classTopology:
		var r struct {
			Platform                 string
			Contexts, Cores, Sockets int
			Spec                     json.RawMessage
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Platform != t.platform || r.Contexts != contexts || r.Cores != cores || r.Sockets != sockets || len(r.Spec) < 2 {
			return fmt.Errorf("topology %s: %d contexts / %d cores / %d sockets, want %d / %d / %d",
				r.Platform, r.Contexts, r.Cores, r.Sockets, contexts, cores, sockets)
		}
	case classPlace:
		var r struct {
			NThreads int `json:"n_threads"`
			Contexts []int
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.NThreads != t.threads[0] {
			return fmt.Errorf("n_threads %d, want %d", r.NThreads, t.threads[0])
		}
		return distinctInRange(r.Contexts, t.threads[0], contexts)
	case classBatch:
		var r struct {
			Results []struct {
				Error    string
				Contexts []int
			}
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if len(r.Results) != len(t.threads) {
			return fmt.Errorf("%d batch results, want %d", len(r.Results), len(t.threads))
		}
		for i, item := range r.Results {
			if item.Error != "" {
				return fmt.Errorf("batch item %d: %s", i, item.Error)
			}
			if err := distinctInRange(item.Contexts, t.threads[i], contexts); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
	case classMap:
		var r struct {
			Result *struct {
				Nodes, Edges int
				CostCycles   int64 `json:"cost_cycles"`
				Assignment   []int
			}
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Result == nil || r.Result.Nodes != len(t.dag.Nodes) || r.Result.Edges != len(t.dag.Edges) ||
			len(r.Result.Assignment) != len(t.dag.Nodes) || r.Result.CostCycles <= 0 {
			return fmt.Errorf("mapping of %s does not match the DAG sent", t.dag.Name)
		}
		for task, c := range r.Result.Assignment {
			if c < 0 || c >= contexts {
				return fmt.Errorf("task %d assigned to context %d of %d", task, c, contexts)
			}
		}
	}
	return nil
}

// answers remembers the first normalised answer seen for each target; every
// later answer must hash the same, on whichever daemon and round.
type answers struct {
	mu    sync.Mutex
	first [][sha256.Size]byte
	seen  []bool
}

func newAnswers(n int) *answers {
	return &answers{first: make([][sha256.Size]byte, n), seen: make([]bool, n)}
}

func (a *answers) check(t *target, idx int, raw, normalised []byte) ([sha256.Size]byte, error) {
	sum := sha256.Sum256(normalised)
	a.mu.Lock()
	seen, first := a.seen[idx], a.first[idx]
	a.mu.Unlock()
	if seen {
		if sum != first {
			return sum, fmt.Errorf("%s %s: answer differs from the first one seen for this request", t.method, t.path)
		}
		return sum, nil
	}
	if err := t.checkStructure(raw); err != nil {
		return sum, fmt.Errorf("%s %s: %w", t.method, t.path, err)
	}
	a.mu.Lock()
	a.seen[idx], a.first[idx] = true, sum
	a.mu.Unlock()
	return sum, nil
}

// client is one closed-loop caller: one keep-alive connection, one request
// in flight.
type client struct {
	http *http.Client
	buf  bytes.Buffer
	norm []byte
}

func newClients(n int, timeout time.Duration) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{http: &http.Client{
			Timeout:   timeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		}}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.http.CloseIdleConnections()
	}
}

// roundResult is what one pass over an op list measured. Slices are
// indexed by op.
type roundResult struct {
	latNs  []int64 // 0 for a failed op
	sums   [][sha256.Size]byte
	bytes  []int // normalised response size
	wall   time.Duration
	failed int
	errs   []error // the first few failures, for the report
}

// runOps sends ops (indexes into targets) to base in a closed loop: client
// i takes ops i, i+C, i+2C, ... in order. An op fails on transport error,
// non-200, timeout or output-check failure, and then contributes no
// latency sample.
func runOps(clients []*client, base string, targets []target, ops []int, ans *answers, rec *recorder) roundResult {
	res := roundResult{latNs: make([]int64, len(ops)), sums: make([][sha256.Size]byte, len(ops)), bytes: make([]int, len(ops))}
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	start := time.Now()
	for ci := range clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c := clients[ci]
			for i := ci; i < len(ops); i += len(clients) {
				t := &targets[ops[i]]
				lat, err := c.do(base, t, ops[i], ans, rec, &res.sums[i], &res.bytes[i])
				if err != nil {
					mu.Lock()
					res.failed++
					if len(res.errs) < 5 {
						res.errs = append(res.errs, err)
					}
					mu.Unlock()
					continue
				}
				res.latNs[i] = int64(lat)
			}
		}(ci)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// do is one op: send, read the whole body (the latency sample ends here),
// then verify.
func (c *client) do(base string, t *target, idx int, ans *answers, rec *recorder, sum *[sha256.Size]byte, size *int) (time.Duration, error) {
	var body io.Reader
	if t.body != nil {
		body = bytes.NewReader(t.body)
	}
	req, err := http.NewRequest(t.method, base+t.path, body)
	if err != nil {
		return 0, err
	}
	if t.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	op := rec.nextOp()
	root := rec.start("client.request", 0, op)
	defer rec.end(root)

	start := time.Now()
	rt := rec.start("client.roundtrip", root, op)
	resp, err := c.http.Do(req)
	rec.end(rt)
	if err != nil {
		return 0, err
	}
	rb := rec.start("client.read_body", root, op)
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	rec.end(rb)
	lat := time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("%s %s: reading body: %w", t.method, t.path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s %s: %s: %.200s", t.method, t.path, resp.Status, c.buf.Bytes())
	}
	vf := rec.start("client.verify", root, op)
	c.norm = normalise(c.norm, c.buf.Bytes())
	*size = len(c.norm)
	*sum, err = ans.check(t, idx, c.buf.Bytes(), c.norm)
	rec.end(vf)
	return lat, err
}

// fetch is a plain GET outside any measured loop.
func fetch(u string) ([]byte, error) {
	resp, err := http.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %.200s", u, resp.Status, b)
	}
	return b, nil
}
