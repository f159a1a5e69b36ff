package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mctopalg"
	"repro/internal/registry"
	"repro/internal/topo"
)

// TestErrorContract is the error-contract table: every sentinel error of
// the client API maps to its HTTP status through statusOf, exercised
// end-to-end through the handlers.
func TestErrorContract(t *testing.T) {
	ts := httptest.NewServer(testServer().routes())
	defer ts.Close()

	okBatch := `{"platform": "Ivy", "reps": 51, "requests": [{"policy": "RR_CORE"}]}`
	okMap := `{"platform": "Ivy", "reps": 51, "dag": ` + dagJSON(`"d"`) + "}\n"
	bigBatch := `{"platform": "Ivy", "requests": [` +
		strings.Repeat(`{"policy": "RR_CORE"},`, 1024) + `{"policy": "RR_CORE"}]}`

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		// ErrInvalidRequest → 400
		{"missing platform", "GET", "/v1/topology", "", 400},
		{"bad seed", "GET", "/v1/topology?platform=Ivy&seed=xyz", "", 400},
		{"bad reps", "GET", "/v1/topology?platform=Ivy&reps=0", "", 400},
		{"bad format", "GET", "/v1/topology?platform=Ivy&reps=51&format=yaml", "", 400},
		{"missing policy", "GET", "/v1/place?platform=Ivy&reps=51", "", 400},
		{"negative threads", "GET", "/v1/place?platform=Ivy&reps=51&policy=RR_CORE&threads=-3", "", 400},
		{"power without power data", "GET", "/v1/place?platform=SPARC&reps=51&policy=POWER", "", 400},
		{"malformed batch body", "POST", "/v1/place/batch", `{not json`, 400},
		{"empty batch", "POST", "/v1/place/batch", `{"platform": "Ivy", "requests": []}`, 400},
		// A strict body is one JSON value and nothing but whitespace after it.
		{"batch body with trailing garbage", "POST", "/v1/place/batch", okBatch + `garbage`, 400},
		{"batch body with a second value", "POST", "/v1/place/batch", okBatch + `{"x":1}`, 400},
		{"map body with trailing garbage", "POST", "/v1/map", okMap + `garbage`, 400},
		{"map body with a second value", "POST", "/v1/map", okMap + `{"x":1}`, 400},
		// ErrUnknownPlatform / ErrUnknownPolicy → 404
		{"unknown platform", "GET", "/v1/topology?platform=Atari&reps=51", "", 404},
		{"unknown policy", "GET", "/v1/place?platform=Ivy&reps=51&policy=NOPE", "", 404},
		{"unknown batch platform", "POST", "/v1/place/batch", `{"platform": "Atari", "requests": [{"policy": "RR_CORE"}]}`, 404},
		// ErrTooLarge → 413
		{"oversized batch", "POST", "/v1/place/batch", bigBatch, 413},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.method == "POST" {
				resp, err = http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			} else {
				resp, err = http.Get(ts.URL + tc.path)
			}
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
			}
		})
	}
}

// blockingServer builds a server whose registry blocks every inference
// until release is called, bounded to maxInflight concurrent requests.
func blockingServer(maxInflight int) (s *server, release func()) {
	releaseCh := make(chan struct{})
	reg := registry.New(registry.Options{
		MaxEntries: 16,
		InferCtx: func(ctx context.Context, platform string, seed uint64, opt mctopalg.Options) (*topo.Topology, error) {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-releaseCh:
				return topo.LoadFile("../../internal/topo/testdata/ivy.mctop")
			}
		},
	})
	var once sync.Once
	return newServerWith(reg, 51, maxInflight), func() { once.Do(func() { close(releaseCh) }) }
}

// TestBackpressureSheds saturates the in-flight bound and asserts the
// daemon sheds with 503 + Retry-After (ErrSaturated → 503 is the last row
// of the error-contract table), while /healthz stays exempt.
func TestBackpressureSheds(t *testing.T) {
	const bound = 2
	s, release := blockingServer(bound)
	defer release()
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	// Fill every slot with requests that block inside the handler. Each
	// uses a distinct seed so they do not collapse into one singleflight.
	errs := make(chan error, bound)
	for i := 0; i < bound; i++ {
		go func(i int) {
			resp, err := http.Get(ts.URL + "/v1/topology?platform=Ivy&seed=" + string(rune('1'+i)))
			if err == nil {
				resp.Body.Close()
			}
			errs <- err
		}(i)
	}
	// Wait until both slots are actually occupied.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.inflight) < bound {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight slots never filled: %d/%d", len(s.inflight), bound)
		}
		time.Sleep(time.Millisecond)
	}

	// The next request is shed, with the retry hint.
	resp, err := http.Get(ts.URL + "/v1/topology?platform=Ivy&seed=9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("saturated response missing Retry-After")
	}

	// The liveness probe is exempt from shedding.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz under saturation: %v %v", resp, err)
	} else {
		resp.Body.Close()
	}

	// Release the blocked inferences; the saturated daemon drains and
	// serves again.
	release()
	for i := 0; i < bound; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if resp, _ := get(t, ts, "/v1/topology?platform=Ivy&seed=1"); resp.StatusCode != 200 {
		t.Fatalf("post-drain: status %d, want 200", resp.StatusCode)
	}
}

func mustUnmarshal(t *testing.T, body []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
}
