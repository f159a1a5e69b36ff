package main

// The `load` subcommand: flag parsing and rendering around
// internal/loadgen's closed loop. Exit status is the SLO verdict (0 pass,
// 1 fail), so a CI step can gate on it directly.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

func loadMain(args []string) int {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	var (
		target   = fs.String("target", "http://127.0.0.1:8077", "mctopd base URL")
		workers  = fs.Int("workers", 4, "closed-loop workers (each has one request in flight)")
		duration = fs.Duration("duration", 10*time.Second, "run length")
		maxReqs  = fs.Int64("max-requests", 0, "stop after this many requests, if > 0 (whichever of this and -duration comes first)")
		warmup   = fs.Duration("warmup", 0, "discard observations made before this elapses")
		mixFlag  = fs.String("mix", "topology=1,place=1",
			"route mix weights: topology=N,place=N,mapdag=N,batch=N,stream=N")
		platforms = fs.String("platforms", "", "comma-separated platforms, gen: specs included (default: all five)")
		reps      = fs.Int("reps", 0, "inference repetitions sent with every request (0 = daemon default)")
		sampling  = fs.Bool("sampling", false, "send sampling=1 with every request (the sampled measurement mode, for large gen: platforms)")
		warmSeeds = fs.Int("warm-seeds", 2, "warm seed pool size (seeds 1..N repeat, so they cache-hit after first use)")
		cold      = fs.Float64("cold", 0, "fraction of requests with a never-repeated seed (forces a full-chain miss)")
		policies  = fs.String("policies", "", "comma-separated placement policies (default RR_CORE,RR_HWC)")
		batch     = fs.Int("batch", 8, "items per batch/stream request")
		threads   = fs.Int("max-threads", 16, "random per-request thread count upper bound")
		seed      = fs.Int64("seed", 1, "RNG seed for a reproducible request sequence")
		chaos     = fs.Bool("chaos", false,
			"verify every 200 body against first-seen goldens and bound each request's duration: corrupt bytes or hangs fail the run (pair with a daemon started with -faults)")
		chaosTO = fs.Duration("chaos-timeout", 15*time.Second, "per-request hang budget in -chaos mode")
		traces  = fs.Bool("traces", false,
			"scrape the daemon's /v1/debug/traces after the run and report per-span latency attribution (needs mctopd -trace-sample > 0)")

		sloErr = fs.Float64("slo-max-error-rate", 0, "fail if errors/requests exceeds this (0 = unchecked)")
		sloRPS = fs.Float64("slo-min-rps", 0, "fail if overall throughput is below this (0 = unchecked)")
		sloP99 sloP99Flag
	)
	fs.Var(&sloP99, "slo-p99",
		"per-route p99 bound, route=duration (repeatable), e.g. /v1/place=50ms")
	fs.Parse(args)

	cfg := loadgen.Config{
		Target:       strings.TrimRight(*target, "/"),
		Workers:      *workers,
		Duration:     *duration,
		MaxRequests:  *maxReqs,
		Warmup:       *warmup,
		Reps:         *reps,
		Sampling:     *sampling,
		WarmSeeds:    *warmSeeds,
		ColdRatio:    *cold,
		BatchSize:    *batch,
		MaxThreads:   *threads,
		Seed:         *seed,
		Chaos:        *chaos,
		ChaosTimeout: *chaosTO,
		Traces:       *traces,
		SLO: loadgen.SLO{
			MaxErrorRate:  *sloErr,
			MinThroughput: *sloRPS,
			P99:           sloP99.bounds,
		},
	}
	var err error
	if cfg.Mix, err = parseMix(*mixFlag); err != nil {
		fmt.Fprintf(os.Stderr, "mctop-bench load: %v\n", err)
		return 2
	}
	if *platforms != "" {
		cfg.Platforms = splitList(*platforms)
	}
	if *policies != "" {
		cfg.Policies = splitList(*policies)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mctop-bench load: %v\n", err)
		return 2
	}
	fmt.Print(rep.String())
	if !rep.OK() {
		return 1
	}
	return 0
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseMix(s string) (loadgen.Mix, error) {
	var m loadgen.Mix
	for _, part := range splitList(s) {
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("bad mix element %q (want name=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return m, fmt.Errorf("bad mix weight %q", part)
		}
		switch name {
		case "topology":
			m.Topology = w
		case "place":
			m.Place = w
		case "mapdag":
			m.MapDAG = w
		case "batch":
			m.Batch = w
		case "stream":
			m.Stream = w
		default:
			return m, fmt.Errorf("unknown mix route %q (topology, place, mapdag, batch, stream)", name)
		}
	}
	if m.Topology+m.Place+m.MapDAG+m.Batch+m.Stream == 0 {
		return m, fmt.Errorf("mix %q has no positive weight", s)
	}
	return m, nil
}

// sloP99Flag accumulates repeatable route=duration bounds.
type sloP99Flag struct {
	bounds map[string]time.Duration
}

func (f *sloP99Flag) String() string {
	var parts []string
	for r, d := range f.bounds {
		parts = append(parts, r+"="+d.String())
	}
	return strings.Join(parts, ",")
}

func (f *sloP99Flag) Set(s string) error {
	route, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want route=duration, e.g. /v1/place=50ms")
	}
	d, err := time.ParseDuration(val)
	if err != nil {
		return err
	}
	if f.bounds == nil {
		f.bounds = make(map[string]time.Duration)
	}
	f.bounds[route] = d
	return nil
}
