package main

// Tests for the bodies rendered from cached entries (render.go): they are
// byte-identical to the renderers that predate them
// (render_reference_test.go) whichever tier the entry came from, bytes
// rendered under one key are never served under another, nothing outlives
// the entries the registry forgets, and a repeated /v1/map body falls back
// to the full path once its mapping is gone.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	mctop "repro"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/topo"
)

// goldenRegistry is a registry whose inference of a golden platform at
// seed 42 and 51 reps — the inputs internal/topo/testdata's fixtures were
// inferred from — loads that fixture instead; anything else infers.
func goldenRegistry(maxEntries int, opts ...mctop.RegistryOption) *mctop.Registry {
	golden := mctop.WithInferWrapper(func(next mctop.InferCtxFunc) mctop.InferCtxFunc {
		return func(ctx context.Context, platform string, seed uint64, opt mctop.Options) (*mctop.Topology, error) {
			if seed == 42 && opt.Normalized().Reps == 51 && !opt.Sampling && !strings.HasPrefix(platform, "gen:") {
				return topo.LoadFile("../../internal/topo/testdata/" + strings.ToLower(platform) + ".mctop")
			}
			return next(ctx, platform, seed, opt)
		}
	})
	return mctop.NewRegistry(maxEntries, append([]mctop.RegistryOption{golden}, opts...)...)
}

// serve runs one request through h and returns the recorded response.
func serve(h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	var rd io.Reader
	if method == http.MethodPost {
		rd = strings.NewReader(body)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, rd))
	return rec
}

var servedInLine = regexp.MustCompile(`(?m)^  "served_in": ".*"$`)

// withoutServedIn blanks the served_in value, the one byte range of a body
// that differs from request to request.
func withoutServedIn(b []byte) []byte {
	return servedInLine.ReplaceAll(b, []byte(`  "served_in": ""`))
}

// dagJSON is a 4-task DAG named name as a raw JSON value; name is spliced
// in verbatim (its quotes included), so a test can send bytes json.Marshal
// would never produce, such as invalid UTF-8.
func dagJSON(name string) string {
	return `{"name": ` + name + `, "nodes": [{"id": 0, "work": 1000}, {"id": 1, "work": 4000}, {"id": 2, "work": 4000}, {"id": 3, "work": 1000}],` +
		` "edges": [{"from": 0, "to": 1, "volume": 65536}, {"from": 0, "to": 2, "volume": 65536}, {"from": 1, "to": 3, "volume": 65536}, {"from": 2, "to": 3, "volume": 65536}]}`
}

// TestBodiesMatchReference: every route rendered from entries answers
// exactly what the reference renderers answer, modulo the served_in value —
// cold (cached: false) and repeated, on the five goldens and one generated
// platform, for every builtin policy at three thread counts, batches with
// inline errors, DAG names that exercise omitempty and escaping, the
// description-file formats and /v1/export of all three kinds. It runs over
// three registries, so the entries come from every tier: the first computes
// (and spools) every answer; a restart over that spool with an LRU of one
// reads every entry from the spool; and an edge over the first daemon
// fetches every entry from it.
func TestBodiesMatchReference(t *testing.T) {
	dir := t.TempDir()
	origin := newServerWith(goldenRegistry(512, mctop.WithSpoolDir(dir)), 51, 0)
	defer origin.reg.Close()
	ref := newServerWith(goldenRegistry(512), 51, 0)
	refH := http.NewServeMux()
	refH.HandleFunc("/v1/topology", ref.refTopology)
	refH.HandleFunc("/v1/place", ref.refPlace)
	refH.HandleFunc("/v1/place/batch", ref.refPlaceBatch)
	refH.HandleFunc("/v1/map", ref.refMap)
	refH.HandleFunc("/v1/export", ref.refExport)

	compared := 0
	sweep := func(name string, h http.Handler) {
		check := func(method, target, body string) {
			t.Helper()
			for pass := 0; pass < 2; pass++ { // first, then repeated
				got := serve(h, method, target, body)
				want := serve(refH, method, target, body)
				if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
					t.Fatalf("%s: %s %s %s (pass %d): status %d %q, reference %d %q\n%s\nreference:\n%s", name, method, target, body, pass,
						got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"), got.Body, want.Body)
				}
				if g, w := withoutServedIn(got.Body.Bytes()), withoutServedIn(want.Body.Bytes()); !bytes.Equal(g, w) {
					t.Fatalf("%s: %s %s %s (pass %d): body differs from the reference\ngot:\n%s\nreference:\n%s", name, method, target, body, pass, g, w)
				}
				compared++
			}
		}

		opt := mctop.NewOptions(mctop.WithReps(51))
		policies := mctop.PolicyNames()
		for _, platform := range append(mctop.Platforms(), "gen:ring:s6:c2:t2") {
			q := "platform=" + url.QueryEscape(platform) + "&seed=42&reps=51"
			check("GET", "/v1/topology?"+q, "")
			check("GET", "/v1/topology?"+q+"&format=mctop", "")
			check("GET", "/v1/topology?"+q+"&format=dot", "")
			for _, pol := range policies {
				for _, n := range []int{1, 7, 0} {
					check("GET", fmt.Sprintf("/v1/place?%s&policy=%s&threads=%d", q, pol, n), "")
				}
			}

			// A batch of every policy plus inline errors: an unknown policy
			// whose name needs HTML escaping, and POWER off-Intel.
			var items []string
			for _, pol := range policies {
				items = append(items, fmt.Sprintf(`{"policy": %q, "threads": 3}`, pol))
			}
			items = append(items, `{"policy": "<a&b>", "threads": 2}`, `{"policy": "POWER"}`)
			pj, _ := json.Marshal(platform)
			batch := `{"platform": ` + string(pj) + `, "seed": 42, "reps": 51, "requests": [` + strings.Join(items, ", ") + `]}`
			check("POST", "/v1/place/batch", batch)

			// Single DAGs: an empty name (omitempty), one needing HTML
			// escaping, a non-ASCII one and invalid UTF-8; refine 0 and 50.
			for _, name := range []string{`""`, `"<a&b>"`, `"名前 ☃"`, "\"bad\xff\xfe\""} {
				for _, refine := range []int{0, 50} {
					body := fmt.Sprintf(`{"platform": %s, "seed": 42, "reps": 51, "refine": %d, "dag": %s}`, pj, refine, dagJSON(name))
					check("POST", "/v1/map", body)
				}
			}
			// A DAG batch with an inline error (a cycle).
			cyclic := `{"name": "loop", "nodes": [{"id": 0, "work": 1}, {"id": 1, "work": 1}], "edges": [{"from": 0, "to": 1, "volume": 1}, {"from": 1, "to": 0, "volume": 1}]}`
			check("POST", "/v1/map", fmt.Sprintf(`{"platform": %s, "seed": 42, "reps": 51, "dags": [%s, %s]}`, pj, dagJSON(`"x"`), cyclic))

			tk := registry.TopoKey(platform, 42, opt)
			var dag graph.TaskDAG
			if err := json.Unmarshal([]byte(dagJSON(`""`)), &dag); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{tk, "place|" + tk + "|MCTOP_PLACE_RR_CORE|7", registry.MapKey(platform, 42, opt, &dag, 50)} {
				check("GET", exportPath(key), "")
			}
		}
	}
	// noneComputed fails if a registry answered anything by inferring or
	// mapping itself rather than from its lower tier. (Placements are
	// not checked: a refused placement, POWER off-Intel, is a compute.)
	noneComputed := func(name string, reg *mctop.Registry) {
		if st := reg.Stats(); st.Inferences != 0 || st.Mappings != 0 {
			t.Fatalf("%s: %d inferences and %d mappings computed, want every answer from the lower tier", name, st.Inferences, st.Mappings)
		}
	}

	sweep("computed", origin.routes())
	if err := origin.reg.Flush(); err != nil {
		t.Fatal(err)
	}

	restarted := goldenRegistry(1, mctop.WithSpoolDir(dir))
	defer restarted.Close()
	sweep("spool", newServerWith(restarted, 51, 0).routes())
	noneComputed("spool", restarted)

	ts := httptest.NewServer(origin.routes())
	defer ts.Close()
	edge := goldenRegistry(1, mctop.WithUpstream(ts.URL))
	defer edge.Close()
	sweep("remote", newServerWith(edge, 51, 0).routes())
	noneComputed("remote", edge)
	t.Logf("%d responses compared", compared)
}

// TestServedInSplice: the per-request tail spliced after memoized bytes is
// what the encoder writes for the response struct, for any served_in and
// cached value — HTML escaping, control characters, invalid UTF-8 and the
// JavaScript line separators included.
func TestServedInSplice(t *testing.T) {
	for _, s := range []string{"", "1.234µs", "12ms", "<a&b>", "a\"b\\c", "tab\there\n", "bad\xff", "\u2028\u2029", "名前"} {
		for _, cached := range []bool{false, true} {
			rec := httptest.NewRecorder()
			refWriteJSON(rec, http.StatusOK, topologyResponse{Platform: "Ivy", Cached: cached, ServedIn: s})
			want := rec.Body.Bytes()
			prefix, err := jsonPrefix(topologyResponse{Platform: "Ivy"}, topologyTail)
			if err != nil {
				t.Fatal(err)
			}
			got := appendServedIn(appendCached(append([]byte(nil), prefix...), cached), s)
			if !bytes.Equal(got, want) {
				t.Errorf("served_in %q cached %v:\n%s\nencoder:\n%s", s, cached, got, want)
			}
		}
		want, _ := json.Marshal(s)
		if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("appendJSONString(%q) = %s, json.Marshal %s", s, got, want)
		}
	}
}

// TestUnencodableBodyIs500: a value the encoder refuses (a NaN) is a 500
// with an error body, never a 200 with an empty one — the status is
// written only once the body is rendered.
func TestUnencodableBodyIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	var e struct{ Error string }
	mustUnmarshal(t, rec.Body.Bytes(), &e)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(e.Error, "NaN") {
		t.Fatalf("status %d, body %s; want a 500 naming the NaN", rec.Code, rec.Body)
	}
}

// aliasCount is the size of the /v1/map digest index.
func (a *mapAliases) aliasCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.keys)
}

// raceBuild is set by race_test.go in a -race build.
var raceBuild bool

// warmTarget is one request answered from rendered bytes when warm.
type warmTarget struct{ name, method, target, body string }

// warmTargets is one request per rendered form of Ivy's entries.
func warmTargets() []warmTarget {
	tk := registry.TopoKey("Ivy", 42, mctop.NewOptions(mctop.WithReps(51)))
	return []warmTarget{
		{"topology", "GET", "/v1/topology?platform=Ivy&seed=42&reps=51", ""},
		{"topology mctop", "GET", "/v1/topology?platform=Ivy&seed=42&reps=51&format=mctop", ""},
		{"place", "GET", "/v1/place?platform=Ivy&seed=42&reps=51&policy=RR_CORE&threads=7", ""},
		{"batch", "POST", "/v1/place/batch", `{"platform": "Ivy", "seed": 42, "reps": 51, "requests": [{"policy": "RR_CORE", "threads": 7}, {"policy": "CON_HWC", "threads": 4}]}`},
		{"map", "POST", "/v1/map", `{"platform": "Ivy", "seed": 42, "reps": 51, "dag": ` + dagJSON(`"d"`) + `}`},
		{"export topology", "GET", exportPath(tk), ""},
		{"export placement", "GET", exportPath("place|" + tk + "|MCTOP_PLACE_RR_CORE|7"), ""},
	}
}

// TestWarmRouteAllocs pins the heap allocations of one warm request per
// rendered form, through the whole middleware stack (request construction
// and recorder included), as upper bounds. Before bodies were rendered once
// the same requests allocated: topology 81, topology mctop 106, place 128,
// batch 96, map 107, export topology 99, export placement 74; before golden
// platform names were sized from a table, every route but map allocated 8
// more than its bound here. The race detector adds a few allocations of
// its own, so a -race build only logs them.
func TestWarmRouteAllocs(t *testing.T) {
	bounds := map[string]float64{
		"topology":         64,
		"topology mctop":   64,
		"place":            73,
		"batch":            79,
		"map":              52,
		"export topology":  55,
		"export placement": 60,
	}
	h := newServerWith(goldenRegistry(64), 51, 0).routes()
	for _, tg := range warmTargets() {
		for i := 0; i < 2; i++ { // compute, then render
			if rec := serve(h, tg.method, tg.target, tg.body); rec.Code != http.StatusOK {
				t.Fatalf("%s: %d %s", tg.name, rec.Code, rec.Body)
			}
		}
		got := testing.AllocsPerRun(50, func() { serve(h, tg.method, tg.target, tg.body) })
		t.Logf("%s: %v allocations", tg.name, got)
		if !raceBuild && got > bounds[tg.name] {
			t.Errorf("%s: %v allocations per warm request, want at most %v", tg.name, got, bounds[tg.name])
		}
	}
}

// TestRenderMemoBounded: rendered bytes live exactly as long as the entries
// the registry keeps, a mapping keeps one body variant at most, the digest
// index stays within its cap, and concurrent use serves identical bytes.
func TestRenderMemoBounded(t *testing.T) {
	s := newServerWith(goldenRegistry(64), 51, 0)
	h := s.routes()
	targets := warmTargets()

	// 8 goroutines hammer the same keys; every answer equals the first.
	want := make([][]byte, len(targets))
	for i, tg := range targets {
		rec := serve(h, tg.method, tg.target, tg.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", tg.method, tg.target, rec.Code, rec.Body)
		}
		want[i] = withoutServedIn(rec.Body.Bytes())
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				i := (g + n) % len(targets)
				tg := targets[i]
				rec := serve(h, tg.method, tg.target, tg.body)
				body := withoutServedIn(rec.Body.Bytes())
				if i == 0 {
					body = bytes.Replace(body, []byte(`"cached": true`), []byte(`"cached": false`), 1)
				}
				if rec.Code != http.StatusOK || !bytes.Equal(body, want[i]) {
					t.Errorf("%s %s: %d, body differs from the first answer", tg.method, tg.target, rec.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Whitespace variants of one map body: one live mapping, one alias.
	mapBody := targets[4].body
	for i := 0; i < 1000; i++ {
		if rec := serve(h, "POST", "/v1/map", mapBody+strings.Repeat(" ", i)); rec.Code != http.StatusOK {
			t.Fatalf("variant %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if n := s.maps.aliasCount(); n != 1 {
		t.Fatalf("after 1000 variants of one map body: %d aliases, want 1", n)
	}

	if n := s.maps.aliasCount(); n > maxMapAliases {
		t.Fatalf("%d aliases, over the cap of %d", n, maxMapAliases)
	}

	// Once the server and its registry are dropped, nothing rendered stays
	// reachable: neither the entries nor any of their forms.
	entries, forms := weakEntries(t, s.reg)
	s, h = nil, nil
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		live := 0
		for _, wp := range entries {
			if wp.Value() != nil {
				live++
			}
		}
		for _, wp := range forms {
			if wp.Value() != nil {
				live++
			}
		}
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after dropping the server and GC: %d of %d entries and forms still reachable", live, len(entries)+len(forms))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// weakEntries returns weak pointers to the entries of warmTargets' answers
// and to every form rendered on them, checking each entry has one.
func weakEntries(t *testing.T, reg *mctop.Registry) ([]weak.Pointer[registry.Entry], []weak.Pointer[byte]) {
	t.Helper()
	opt := mctop.NewOptions(mctop.WithReps(51))
	tk := registry.TopoKey("Ivy", 42, opt)
	var dag graph.TaskDAG
	if err := json.Unmarshal([]byte(dagJSON(`"d"`)), &dag); err != nil {
		t.Fatal(err)
	}
	var entries []weak.Pointer[registry.Entry]
	var forms []weak.Pointer[byte]
	for _, key := range []string{tk, "place|" + tk + "|MCTOP_PLACE_RR_CORE|7", "place|" + tk + "|MCTOP_PLACE_CON_HWC|4", registry.MapKey("Ivy", 42, opt, &dag, 0)} {
		kind, _ := registry.KindOfKey(key)
		v, ok := reg.Store().Get(kind, key)
		if !ok {
			t.Fatalf("no entry under %q", key)
		}
		e := v.(*registry.Entry)
		entries = append(entries, weak.Make(e))
		n := len(forms)
		for f := registry.Form(0); f < registry.NumForms; f++ {
			if b := e.Rendered(f); len(b) > 0 {
				forms = append(forms, weak.Make(&b[0]))
			}
		}
		if len(forms) == n {
			t.Fatalf("the entry under %q holds no rendered form", key)
		}
	}
	return entries, forms
}

// TestMapAliasFallsBackAfterEviction: a repeated /v1/map body whose
// mapping the registry has evicted is answered by the full path, which
// recomputes the mapping once, with the same bytes.
func TestMapAliasFallsBackAfterEviction(t *testing.T) {
	s := newServerWith(goldenRegistry(2), 51, 0)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	body := warmTargets()[4].body

	_, first := postMap(t, ts, body)
	_, again := postMap(t, ts, body) // the alias answers
	if !bytes.Equal(withoutServedIn(first), withoutServedIn(again)) {
		t.Fatalf("repeat differs:\n%s\n%s", first, again)
	}
	before := scrapeMetrics(t, ts)[`mctopd_registry_mappings_total`]

	// A third entry evicts the mapping, the least recently used of the
	// LRU's two (the placement's lookup touched the topology).
	if resp, b := get(t, ts, "/v1/place?platform=Ivy&seed=42&reps=51&policy=RR_CORE&threads=1"); resp.StatusCode != 200 {
		t.Fatalf("place: %d %s", resp.StatusCode, b)
	}
	resp, after := postMap(t, ts, body)
	if resp.StatusCode != 200 || !bytes.Equal(withoutServedIn(first), withoutServedIn(after)) {
		t.Fatalf("after eviction: %d\n%s\nwant\n%s", resp.StatusCode, after, first)
	}
	if got := scrapeMetrics(t, ts)[`mctopd_registry_mappings_total`]; got != before+1 {
		t.Fatalf("mctopd_registry_mappings_total %g -> %g, want one recompute", before, got)
	}
}

// TestMapAliasRendersATierDecodedEntry: a repeated /v1/map body whose
// mapping the LRU evicted but the spool still holds is answered from the
// entry the spool decodes — one lookup, attributed to the spool, no
// recompute, the same bytes — and the entry then carries the body again.
func TestMapAliasRendersATierDecodedEntry(t *testing.T) {
	s := newServerWith(goldenRegistry(1, mctop.WithSpoolDir(t.TempDir())), 51, 0)
	defer s.reg.Close()
	ts := httptest.NewServer(s.routes())
	defer ts.Close()
	body := warmTargets()[4].body

	_, first := postMap(t, ts, body)
	if err := s.reg.Flush(); err != nil {
		t.Fatal(err)
	}
	// A placement takes the LRU's one slot.
	if resp, b := get(t, ts, "/v1/place?platform=Ivy&seed=42&reps=51&policy=RR_CORE&threads=1"); resp.StatusCode != 200 {
		t.Fatalf("place: %d %s", resp.StatusCode, b)
	}
	for _, tier := range []string{"spool", "lru"} {
		before := scrapeMetrics(t, ts)
		resp, again := postMap(t, ts, body)
		after := scrapeMetrics(t, ts)
		if resp.StatusCode != 200 || !bytes.Equal(withoutServedIn(first), withoutServedIn(again)) {
			t.Fatalf("%s: %d\n%s\nwant\n%s", tier, resp.StatusCode, again, first)
		}
		for name, want := range map[string]float64{
			`mctopd_requests_served_by_tier_total{tier="` + tier + `"}`: 1,
			"mctopd_registry_hits_total":                                1,
			"mctopd_registry_mappings_total":                            0,
		} {
			if d := after[name] - before[name]; d != want {
				t.Errorf("%s: %s rose by %g, want %g", tier, name, d, want)
			}
		}
	}
}

// TestRenderMemoNeverServesAnotherKeysBytes: a store that answers two keys
// with one topology value, in two entries, gets each key's own body and
// export — bytes rendered under one key are never served under another.
func TestRenderMemoNeverServesAnotherKeysBytes(t *testing.T) {
	top, err := topo.LoadFile("../../internal/topo/testdata/ivy.mctop")
	if err != nil {
		t.Fatal(err)
	}
	opt := mctop.NewOptions(mctop.WithReps(51))
	lru := mctop.NewLRUStore(16)
	for _, seed := range []uint64{1, 2} {
		key := registry.TopoKey("Ivy", seed, opt)
		lru.Put(registry.KindTopology, key, registry.NewEntry(registry.KindTopology, key, top))
	}
	s := newServerWith(mctop.NewRegistry(0, mctop.WithStore(lru)), 51, 0)
	h := s.routes()
	for round := 0; round < 2; round++ {
		for _, seed := range []uint64{1, 2} {
			rec := serve(h, "GET", fmt.Sprintf("/v1/topology?platform=Ivy&seed=%d&reps=51", seed), "")
			var tr topologyResponse
			mustUnmarshal(t, rec.Body.Bytes(), &tr)
			if tr.Seed != seed {
				t.Fatalf("round %d: seed %d answered with seed %d's body", round, seed, tr.Seed)
			}
			key := registry.TopoKey("Ivy", seed, opt)
			rec = serve(h, "GET", exportPath(key), "")
			if !bytes.HasPrefix(rec.Body.Bytes(), []byte("#key "+key+"\n")) {
				t.Fatalf("round %d: export of %s answered with another key's file:\n%.120s", round, key, rec.Body)
			}
		}
	}
}

// TestExportMappingIsAttributed: an origin's mapping export is an
// attributed, counted registry hit (what an edge's fetch of it shows in
// the origin's served-by-tier counters and request log); one the origin
// never computed stays an honest 404.
func TestExportMappingIsAttributed(t *testing.T) {
	s := newServerWith(goldenRegistry(64), 51, 0)
	var logs bytes.Buffer
	s.logger = slog.New(slog.NewTextHandler(&logs, nil))
	h := s.routes()
	scrape := func() map[string]float64 {
		samples, err := metrics.ParseText(serve(h, "GET", "/metrics", "").Body)
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]float64, len(samples))
		for _, s := range samples {
			m[s.Key()] = s.Value
		}
		return m
	}

	var dag graph.TaskDAG
	if err := json.Unmarshal([]byte(dagJSON(`"d"`)), &dag); err != nil {
		t.Fatal(err)
	}
	key := registry.MapKey("Ivy", 42, mctop.NewOptions(mctop.WithReps(51)), &dag, 0)
	if rec := serve(h, "GET", exportPath(key), ""); rec.Code != http.StatusNotFound {
		t.Fatalf("cold mapping export: %d %s, want 404", rec.Code, rec.Body)
	}

	serve(h, "POST", "/v1/map", warmTargets()[4].body)
	before := scrape()
	logs.Reset()
	if rec := serve(h, "GET", exportPath(key), ""); rec.Code != http.StatusOK {
		t.Fatalf("warm mapping export: %d %s", rec.Code, rec.Body)
	}
	line := logs.String()
	after := scrape()
	for _, name := range []string{`mctopd_requests_served_by_tier_total{tier="lru"}`, "mctopd_registry_hits_total"} {
		if d := after[name] - before[name]; d != 1 {
			t.Errorf("%s rose by %g, want 1", name, d)
		}
	}
	if !strings.Contains(line, "route=/v1/export") || !strings.Contains(line, "tier=lru") {
		t.Errorf("export request log %q, want route=/v1/export with tier=lru", line)
	}
}
