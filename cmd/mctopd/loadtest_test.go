package main

// The fleet tests' load rig and its first user. driveLoad is the closed
// loop the load, chaos and run()-level tests drive a daemon with;
// TestLoadHarnessDrivesFleet points it at an in-process origin+edge fleet
// at a mixed workload. The bar: zero errors, every edge answer served
// without a local inference or placement, and the /metrics mirror agreeing
// exactly with /v1/stats once the load quiesces.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/registry"
)

// hangBudget bounds every driveLoad request: one still unanswered when it
// expires is a hang, the contract violation the budget exists to catch.
var hangBudget = 30 * time.Second

// loadResult counts one driveLoad pass. errors is every request that did
// not end in a verified 200 — transport failures, other statuses, corrupt
// answers and hangs; corrupt and hangs are the contract violations among
// them.
type loadResult struct{ requests, errors, corrupt, hangs int }

// placed is one placement answer as the single, batch and stream routes
// all render it.
type placed struct {
	Policy   string `json:"policy"`
	Error    string `json:"error"`
	NThreads int    `json:"n_threads"`
	Contexts []int  `json:"contexts"`
}

// driveLoad sends n requests to target from four closed-loop workers, each
// with one request in flight. The request list is deterministic: a
// 2:2:1:1:1 mix of topology (format=mctop), place, map, batch and stream
// requests over platforms, seeds 1 and 2, RR_CORE/RR_HWC and 1–8 threads,
// at reps 51. goldens maps each answer's key to the first value seen for
// it — share one map across passes to pin the answers before faults fire —
// and every 200 must match: topologies byte for byte, placements by their
// contexts keyed by (platform, seed, policy, threads) so the single, batch
// and stream routes agree, mappings by assignment and cost. An undecodable
// 200 is corruption; honest error statuses and inline per-item errors are
// not. driveLoad reports only through its result, so it may run on any
// goroutine.
func driveLoad(target string, n int, platforms []string, goldens *sync.Map) loadResult {
	type request struct {
		route, platform string
		seed            uint64
		body            []byte // the POST body; nil for a GET
	}
	rng := rand.New(rand.NewSource(1))
	policy := func() string { return []string{"RR_CORE", "RR_HWC"}[rng.Intn(2)] }
	work := make(chan request, n)
	for i := 0; i < n; i++ {
		r := request{platform: platforms[rng.Intn(len(platforms))], seed: uint64(1 + rng.Intn(2))}
		q := fmt.Sprintf("platform=%s&seed=%d&reps=51", url.QueryEscape(r.platform), r.seed)
		switch k := rng.Intn(7); {
		case k < 2:
			r.route = "/v1/topology?" + q + "&format=mctop"
		case k < 4:
			r.route = fmt.Sprintf("/v1/place?%s&policy=%s&threads=%d", q, policy(), 1+rng.Intn(8))
		case k == 4:
			r.route = "/v1/map"
			r.body, _ = json.Marshal(mapRequest{
				topoParams: topoParams{Platform: r.platform, Seed: &r.seed, Reps: 51},
				Refine:     200,
				DAG:        graph.GenTaskDAG(graph.DAGParams{}, r.seed),
			})
		default:
			r.route = "/v1/place/batch"
			if k == 6 {
				r.route += "?stream=1"
			}
			items := make([]string, 4)
			for j := range items {
				items[j] = fmt.Sprintf(`{"policy":%q,"threads":%d}`, policy(), 1+rng.Intn(8))
			}
			r.body = fmt.Appendf(nil, `{"platform":%q,"seed":%d,"reps":51,"requests":[%s]}`,
				r.platform, r.seed, strings.Join(items, ","))
		}
		work <- r
	}
	close(work)

	match := func(k, v string) bool {
		first, seen := goldens.LoadOrStore(k, v)
		return !seen || first.(string) == v
	}
	verify := func(r request, body []byte) bool {
		key := fmt.Sprintf("%s|%d", r.platform, r.seed)
		var items []placed
		switch {
		case strings.HasPrefix(r.route, "/v1/topology"):
			return match("topo|"+key, string(body))
		case r.route == "/v1/map":
			var resp struct {
				Result *mapItemResponse `json:"result"`
			}
			if json.Unmarshal(body, &resp) != nil || resp.Result == nil {
				return false
			}
			m := resp.Result
			return m.Error != "" || match("map|"+key, fmt.Sprintf("%v@%d", m.Assignment, m.CostCycles))
		case strings.HasPrefix(r.route, "/v1/place?"):
			items = make([]placed, 1)
			if json.Unmarshal(body, &items[0]) != nil {
				return false
			}
		case r.route == "/v1/place/batch":
			var resp struct {
				Results []placed `json:"results"`
			}
			if json.Unmarshal(body, &resp) != nil {
				return false
			}
			items = resp.Results
		default: // the NDJSON stream, one placement per line
			for dec := json.NewDecoder(bytes.NewReader(body)); dec.More(); {
				var p placed
				if dec.Decode(&p) != nil {
					return false
				}
				items = append(items, p)
			}
		}
		for _, p := range items {
			k := fmt.Sprintf("place|%s|%s|%d", key, p.Policy, p.NThreads)
			if p.Error == "" && !match(k, fmt.Sprint(p.Contexts)) {
				return false
			}
		}
		return true
	}
	issue := func(r request) (failed, corrupt, hang bool) {
		ctx, cancel := context.WithTimeout(context.Background(), hangBudget)
		defer cancel()
		method := http.MethodGet
		if r.body != nil {
			method = http.MethodPost
		}
		req, err := http.NewRequestWithContext(ctx, method, target+r.route, bytes.NewReader(r.body))
		if err != nil {
			return true, false, false
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		var body []byte
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		switch {
		case err != nil:
			return true, false, ctx.Err() != nil
		case resp.StatusCode != http.StatusOK:
			return true, false, false
		case !verify(r, body):
			return true, true, false
		}
		return false, false, false
	}

	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				failed, corrupt, hang := issue(r)
				mu.Lock()
				res.requests++
				if failed {
					res.errors++
				}
				if corrupt {
					res.corrupt++
				}
				if hang {
					res.hangs++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}

// TestDriveLoadVerdicts holds the rig to its own contract against a target
// that misbehaves on purpose. Every answer differs from the one before, so
// only the first answer per golden key verifies and every later topology
// or placement is corruption; an undecodable 200 is corruption too; honest
// 503s are failures and nothing more; and requests the handler never
// answers are hangs once hangBudget expires.
func TestDriveLoadVerdicts(t *testing.T) {
	defer func(b time.Duration) { hangBudget = b }(hangBudget)
	hangBudget = 50 * time.Millisecond
	var answers atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := answers.Add(1)
		switch {
		case r.URL.Path == "/v1/topology":
			fmt.Fprintf(w, "topology %d", n)
		case r.URL.Path == "/v1/place":
			fmt.Fprintf(w, `{"policy":"RR_CORE","n_threads":1,"contexts":[%d]}`, n)
		case r.URL.Path == "/v1/map":
			http.Error(w, "busy", http.StatusServiceUnavailable)
		case r.URL.Query().Get("stream") == "1":
			<-release // answers only once the test is over
		default: // the batch route: a 200 that does not decode
			io.WriteString(w, `{"results":[`)
		}
	}))
	defer ts.Close()
	defer close(release)

	res := driveLoad(ts.URL, 35, []string{"Ivy"}, new(sync.Map))
	t.Logf("%+v", res)
	if res.requests != 35 {
		t.Fatalf("issued %d requests, want 35", res.requests)
	}
	// At most one topology and one placement golden per seed (1, 2).
	if ok := res.requests - res.errors; ok < 1 || ok > 4 {
		t.Errorf("%d of %d answers verified, want one per first-seen golden key", ok, res.requests)
	}
	if res.corrupt == 0 {
		t.Error("answers that differ from their goldens counted no corruption")
	}
	if res.hangs == 0 {
		t.Error("requests the target never answered counted no hangs")
	}
	if res.corrupt+res.hangs >= res.errors {
		t.Errorf("honest 503s were counted as contract violations: %+v", res)
	}
}

func decodeStats(t *testing.T, body []byte) registry.Stats {
	t.Helper()
	var st registry.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding /v1/stats: %v\n%s", err, body)
	}
	return st
}

func TestLoadHarnessDrivesFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second integration run")
	}
	// Origin: spool-backed, the only place inference may run.
	originSrv, originReg := spoolServer(t, t.TempDir())
	origin := httptest.NewServer(originSrv.routes())
	defer origin.Close()

	// Edge: LRU over a remote tier against the origin — the load's target,
	// as `mctopd -upstream` would wire it.
	edgeSrv, edgeReg := edgeServer(t, origin.URL)
	edge := httptest.NewServer(edgeSrv.routes())
	defer edge.Close()

	res := driveLoad(edge.URL, 160, []string{"Ivy", "Haswell"}, new(sync.Map))
	t.Logf("%+v", res)
	if res.errors != 0 {
		t.Fatalf("load saw %d errors of %d requests (%d corrupt, %d hangs)",
			res.errors, res.requests, res.corrupt, res.hangs)
	}
	if res.requests != 160 {
		t.Fatalf("load issued %d requests, want 160", res.requests)
	}

	// Fleet invariant under load: the edge never inferred or computed —
	// everything was a local cache hit or a fetch of the origin's entries.
	// Mappings are the exception by design: the origin has never seen these
	// DAGs (mapping keys are hash-addressed, so /v1/export cannot compute
	// one on demand), so the edge maps locally over fetched topologies.
	edgeStats := edgeReg.Stats()
	if edgeStats.Inferences != 0 || edgeStats.Placements != 0 {
		t.Fatalf("edge computed locally under load: %d inferences, %d placements",
			edgeStats.Inferences, edgeStats.Placements)
	}
	if edgeStats.Mappings == 0 {
		t.Fatal("the map requests drove no mapping computes on the edge")
	}
	if originReg.Stats().Inferences == 0 {
		t.Fatal("origin ran no inferences — the load never reached it")
	}

	// Quiesced, /metrics and /v1/stats must be two views of one counter
	// set: the registry mirror equal field-for-field, and the per-tier
	// per-kind gets equal to the tier snapshot's Kinds.
	_, body := get(t, edge, "/v1/stats")
	st := decodeStats(t, body)
	m := scrapeMetrics(t, edge)
	wantSample(t, m, "mctopd_registry_hits_total", float64(st.Hits))
	wantSample(t, m, "mctopd_registry_misses_total", float64(st.Misses))
	wantSample(t, m, "mctopd_registry_inferences_total", float64(st.Inferences))
	wantSample(t, m, "mctopd_registry_placements_total", float64(st.Placements))
	wantSample(t, m, "mctopd_registry_mappings_total", float64(st.Mappings))
	wantSample(t, m, "mctopd_registry_entries", float64(st.Entries))
	for _, tier := range st.Tiers {
		for kind, ks := range tier.Kinds {
			wantSample(t, m,
				`mctopd_store_gets_total{kind="`+kind+`",result="hit",tier="`+tier.Tier+`"}`,
				float64(ks.Hits))
			wantSample(t, m,
				`mctopd_store_gets_total{kind="`+kind+`",result="miss",tier="`+tier.Tier+`"}`,
				float64(ks.Misses))
		}
	}
	// And the serving-tier attribution saw the remote tier feed the edge.
	if m[`mctopd_requests_served_by_tier_total{tier="remote"}`] == 0 {
		t.Error("no requests attributed to the remote tier")
	}
	if m[`mctopd_requests_served_by_tier_total{tier="lru"}`] == 0 {
		t.Error("no requests attributed to the lru tier")
	}
}
