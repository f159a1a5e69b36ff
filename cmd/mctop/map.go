package main

// The map subcommand: read task DAGs from NDJSON files (the interchange
// format of internal/graph.EncodeTaskDAG) and map each onto a platform's
// topology — locally through a (optionally spool-backed) registry, or by
// POSTing to a running mctopd's /v1/map endpoint:
//
//	mctop map -platform Ivy wordcount.dag
//	mctop map -spool /var/lib/mctop/spool -refine 5000 pipeline.dag
//	mctop map -origin http://origin:8077 wordcount.dag pipeline.dag
//	... | mctop map -platform Haswell -

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	mctop "repro"
	"repro/internal/graph"
)

func runMap(args []string) {
	fs := flag.NewFlagSet("mctop map", flag.ExitOnError)
	var (
		platform = fs.String("platform", "Ivy", "simulated platform: Ivy, Westmere, Haswell, Opteron, SPARC")
		seed     = fs.Uint64("seed", 42, "simulator noise seed")
		reps     = fs.Int("reps", 201, "repetitions per context pair")
		refine   = fs.Int("refine", 1000, "pairwise-swap refinement budget in cost probes (0 = greedy only)")
		spoolDir = fs.String("spool", "", "spool directory to read/persist mappings through (local mode)")
		origin   = fs.String("origin", "", "POST to this mctopd base URL instead of computing locally")
	)
	fs.Parse(args)
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mctop map [-platform P] [-seed N] [-reps R] [-refine B] [-spool DIR | -origin URL] dag.ndjson... (- = stdin)")
		os.Exit(2)
	}

	var dags []*graph.TaskDAG
	for _, path := range fs.Args() {
		var r io.Reader = os.Stdin
		if path != "-" {
			f, err := os.Open(path)
			fail(err)
			defer f.Close()
			r = f
		}
		d, err := graph.DecodeTaskDAG(r)
		if err != nil {
			fail(fmt.Errorf("%s: %w", path, err))
		}
		if d.Name == "" {
			// Display only: the name is excluded from the canonical hash,
			// so it never changes the cache key or the mapping.
			d.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		dags = append(dags, d)
	}

	if *origin != "" {
		mapViaOrigin(*origin, *platform, *seed, *reps, *refine, dags)
		return
	}

	reg := spoolRegistry(*spoolDir)
	opt := mctop.NewOptions(mctop.WithReps(*reps))
	for _, d := range dags {
		m, err := reg.MapDAGContext(context.Background(), *platform, *seed, opt, d, *refine)
		fail(err)
		printMapping(d.Name, *platform, *seed, m.Algo(), m.Cost(), m.Assignment(), len(d.Edges))
	}
	fail(reg.Close())
}

// mapViaOrigin sends one batch request to a running daemon — the fleet
// deployment in CLI form: the origin computes (or serves from cache) and
// this process never loads a topology.
func mapViaOrigin(origin, platform string, seed uint64, reps, refine int, dags []*graph.TaskDAG) {
	req := struct {
		Platform string           `json:"platform"`
		Seed     uint64           `json:"seed"`
		Reps     int              `json:"reps,omitempty"`
		Refine   int              `json:"refine,omitempty"`
		DAGs     []*graph.TaskDAG `json:"dags"`
	}{Platform: platform, Seed: seed, Reps: reps, Refine: refine, DAGs: dags}
	body, err := json.Marshal(req)
	fail(err)
	resp, err := http.Post(strings.TrimRight(origin, "/")+"/v1/map", "application/json", bytes.NewReader(body))
	fail(err)
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	fail(err)
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("origin returned %s: %s", resp.Status, strings.TrimSpace(string(raw))))
	}
	var mr struct {
		Results []struct {
			DAG        string `json:"dag"`
			Error      string `json:"error"`
			Algo       string `json:"algo"`
			CostCycles int64  `json:"cost_cycles"`
			Assignment []int  `json:"assignment"`
		} `json:"results"`
	}
	fail(json.Unmarshal(raw, &mr))
	failed := 0
	for i, r := range mr.Results {
		if r.Error != "" {
			fmt.Fprintf(os.Stderr, "mctop: %s: %s\n", r.DAG, r.Error)
			failed++
			continue
		}
		edges := 0
		if i < len(dags) {
			edges = len(dags[i].Edges)
		}
		printMapping(r.DAG, platform, seed, r.Algo, r.CostCycles, r.Assignment, edges)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func printMapping(name, platform string, seed uint64, algo string, cost int64, assign []int, edges int) {
	fmt.Printf("%s: %d tasks, %d edges on %s (seed %d): %s, estimated %d cycles\n",
		name, len(assign), edges, platform, seed, algo, cost)
	for task, ctx := range assign {
		fmt.Printf("  task %d -> hwc %d\n", task, ctx)
	}
}
