// Command bench is the repo's benchmark: four workloads over the whole
// stack, their end-to-end metrics, and an outside-in ladder of per-layer
// metrics. See README.md for the metric dictionary.
//
//	go run -C bench . -seed 1 -json out.json      every workload, then the ledger pass
//	go run -C bench . --workload serve_warm --seed 1 --seconds 12 --trace 0
//	go run -C bench . --workload serve_warm --seed 1 --seconds 12 --trace 1
//	go run -C bench . compare A.json B.json
//
// With --workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics of that
// workload with --trace 0, every per-layer metric with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "manifest":
			b, err := manifest()
			if err != nil {
				fatal(err)
			}
			os.Stdout.Write(b)
			return
		}
	}
	var (
		workload  = flag.String("workload", "", "run one workload and print the driver's JSON line (default: all four, then the ledger pass)")
		seed      = flag.Uint64("seed", 1, "drives every generated input")
		seconds   = flag.Float64("seconds", 12, "measuring budget per workload; rounds repeat until it is spent")
		trace     = flag.Int("trace", -1, "0: end-to-end metrics only; 1: the ledger pass (per-layer metrics); default: both without -workload, 0 with it")
		scaleName = flag.String("scale", "full", "full | smoke")
		jsonPath  = flag.String("json", "", "write the results file here")
		spansPath = flag.String("spans", "", "write the ledger pass's spans here (default .bench_build/spans.json)")
	)
	flag.Parse()
	sc, ok := scales[*scaleName]
	if !ok {
		fatal(fmt.Errorf("unknown -scale %q (full, smoke)", *scaleName))
	}
	if _, ok := workloadFuncs[*workload]; !ok && *workload != "" {
		fatal(fmt.Errorf("unknown -workload %q", *workload))
	}
	if *trace < 0 {
		*trace = 1
		if *workload != "" {
			*trace = 0
		}
	}
	r, err := run(options{workload: *workload, seed: *seed, seconds: *seconds, ledger: *trace == 1, sc: sc, spansPath: *spansPath})
	if r != nil && *jsonPath != "" {
		b, _ := json.MarshalIndent(r, "", "  ")
		if werr := os.WriteFile(*jsonPath, append(b, '\n'), 0o644); werr != nil && err == nil {
			err = werr
		}
	}
	if r != nil && *workload != "" {
		fmt.Println(r.driverLine(*workload, *trace == 1, err == nil))
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

type options struct {
	workload  string // "" = all
	seed      uint64
	seconds   float64
	ledger    bool
	sc        scale
	spansPath string
}

// results is the results file.
type results struct {
	Env       envInfo           `json:"env"`
	Workloads []*workloadResult `json:"workloads"`
	// PerLayer is the ledger pass: workload-specific and per-layer metrics.
	PerLayer []layerValue  `json:"per_layer,omitempty"`
	Spans    []spanSummary `json:"spans,omitempty"`
}

type envInfo struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	Load1      float64 `json:"load1"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	BuildS     float64 `json:"build_s"`
}

type layerValue struct {
	Name  string  `json:"name"`
	Layer string  `json:"layer,omitempty"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Moves string  `json:"moves,omitempty"`
}

// run is the whole benchmark. It returns what it measured even on failure,
// so a failed run still reports its op counts.
func run(o options) (*results, error) {
	// The ledger needs every workload: each per-layer metric comes from the
	// daemons of the workload it explains.
	var names []string
	for _, w := range workloadDefs {
		if o.workload == "" || o.ledger || o.workload == w.Name {
			names = append(names, w.Name)
		}
	}
	e, err := newEnv(o.workload != wLibClient || o.ledger)
	if err != nil {
		return nil, err
	}
	defer e.close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		e.close()
		os.Exit(130)
	}()

	cfg := runCfg{seed: o.seed, seconds: o.seconds, sc: o.sc, clients: max(1, runtime.NumCPU()/2)}
	if o.ledger {
		cfg.rec = newRecorder()
		if o.workload != "" {
			// A driver's --trace 1 run reports per-layer metrics only: the
			// untraced rounds behind them can be short.
			cfg.seconds = min(cfg.seconds, 3)
		}
	}
	r := &results{Env: envInfo{
		Commit: commit(e.root), Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Clients: cfg.clients, Load1: load1(), Seed: o.seed, Seconds: cfg.seconds, Scale: o.sc.name, BuildS: e.buildS,
	}}
	fmt.Printf("bench: seed %d, %s scale, %.0fs per workload, %d client(s), nproc %d, %s, commit %s, build_s %.2f\n",
		o.seed, o.sc.name, cfg.seconds, cfg.clients, r.Env.NProc, r.Env.Go, r.Env.Commit, e.buildS)

	byName := map[string]*workloadResult{}
	for _, name := range names {
		res, err := guarded(e, cfg, name)
		if res != nil {
			r.Workloads = append(r.Workloads, res)
			byName[name] = res
			res.print()
		}
		if err != nil {
			if kept := keepLogs(e); kept != "" {
				fmt.Fprintln(os.Stderr, "bench: daemon logs kept in", kept)
			}
			return r, err
		}
	}
	if !o.ledger {
		return r, nil
	}
	values, err := ledgerPass(e, cfg, byName)
	if err != nil {
		keepLogs(e)
		return r, err
	}
	for _, def := range ledgerMetrics() {
		v, ok := values[def.Name]
		if !ok {
			return r, fmt.Errorf("ledger pass did not measure %s", def.Name)
		}
		r.PerLayer = append(r.PerLayer, layerValue{def.Name, def.Layer, def.Unit, v, def.Moves})
	}
	r.Spans = cfg.rec.summary()
	if o.spansPath == "" {
		o.spansPath = filepath.Join(e.root, ".bench_build", "spans.json")
	}
	if err := cfg.rec.write(o.spansPath); err != nil {
		return r, err
	}
	r.printLedger(o.spansPath)
	return r, nil
}

// guarded runs one workload between two noise probes: a fixed
// single-threaded spin timed before and after. The run is marked unstable
// when the two differ by more than 10%, when the machine was loaded beyond
// its cores as the workload started, or when the hypervisor took more than
// 2% of the CPU time away meanwhile, because then its timings say more
// about the box than the code.
func guarded(e *env, cfg runCfg, name string) (*workloadResult, error) {
	load, before := load1(), spinMs()
	stolen, total := cpuTimes()
	res, err := workloadFuncs[name](e, cfg)
	if res == nil {
		return nil, err
	}
	after := spinMs()
	stolenAfter, totalAfter := cpuTimes()
	res.SpinMs, res.Load1 = [2]float64{before, after}, load
	if totalAfter > total {
		res.StealPct = 100 * (stolenAfter - stolen) / (totalAfter - total)
	}
	if diff := (after - before) / before; diff > 0.10 || diff < -0.10 || load > float64(runtime.NumCPU()) || res.StealPct > 2 {
		res.Unstable = true
		fmt.Fprintf(os.Stderr, "bench: %s is UNSTABLE: spin %.1f ms before, %.1f ms after, load1 %.2f on %d cpus, %.1f%% of cpu time stolen\n",
			name, before, after, load, runtime.NumCPU(), res.StealPct)
	}
	return res, err
}

// cpuTimes reads the machine's stolen and total CPU time (jiffies) from
// the first line of /proc/stat; zeros where there is none.
func cpuTimes() (stolen, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, field := range f[1:] {
		v, _ := strconv.ParseFloat(field, 64)
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal
			stolen = v
		}
	}
	return stolen, total
}

// spinMs times a fixed arithmetic loop (about 200 ms on the sizing box).
func spinMs() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += int64(x & 1)
	return float64(time.Since(start)) / 1e6
}

func load1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}

func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// ledgerPass produces every per-layer metric: what the untraced runs
// already measured from their own daemons, a short traced run of each daemon
// workload (daemons at -trace-sample 1, client spans on), and the
// in-process ladder.
func ledgerPass(e *env, cfg runCfg, untraced map[string]*workloadResult) (map[string]float64, error) {
	values := map[string]float64{}
	for _, res := range untraced {
		for _, def := range workloadMetrics {
			if mv, ok := res.metric(def.Name); ok {
				values[def.Name] = mv.Value
			}
		}
		for name, v := range res.ledger {
			values[name] = v
		}
	}
	traced := cfg
	traced.traced, traced.seconds = true, min(cfg.seconds, 2)
	traced.sc.minRounds = 1
	for _, name := range []string{wServeWarm, wInferCold, wTierChain} {
		fmt.Printf("bench: traced rounds of %s\n", name)
		res, err := workloadFuncs[name](e, traced)
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", name, err)
		}
		for name, v := range res.ledger {
			if strings.HasPrefix(name, "mctopd.span.") {
				values[name] = v
			}
		}
		if name == wServeWarm {
			plain, _ := untraced[wServeWarm].metric("op_p50_ms")
			with, _ := res.metric("op_p50_ms")
			values["trace.overhead_pct"] = 100 * (with.Value/plain.Value - 1)
		}
	}
	fmt.Println("bench: in-process ladder")
	big := genDAG(newRNG(cfg.seed, "ladder.dag"), "ladder")
	inproc, err := ladderInProcess(cfg.rec, e.root, cfg.sc.ladderReps, &big)
	if err != nil {
		return nil, fmt.Errorf("in-process ladder: %w", err)
	}
	for name, v := range inproc {
		values[name] = v
	}
	return values, nil
}

// --- output -------------------------------------------------------------------

func (res *workloadResult) print() {
	fmt.Printf("\n%s: %d rounds, ops attempted %d, failed %d, output_digest %s\n",
		res.Name, res.Rounds, res.Attempted, res.Failed, res.Digest)
	for _, m := range res.Metrics {
		fmt.Printf("  %-20s %14.4f %-6s spread %5.1f%%  bound %2.0f%%  samples/round %d\n",
			m.Name, m.Value, m.Unit, 100*m.Spread, m.BoundPct, m.Samples)
	}
	fmt.Printf("  diagnostics (never gated):")
	for _, k := range []string{"p99_ms", "max_ms", "samples_per_round", "edge_start_ready_ms", "edge_restart_ready_ms"} {
		if v, ok := res.Diag[k]; ok {
			fmt.Printf(" %s %.3f", k, v)
		}
	}
	fmt.Printf("; spin %.1f -> %.1f ms, load1 %.2f, steal %.1f%%\n", res.SpinMs[0], res.SpinMs[1], res.Load1, res.StealPct)
}

func (r *results) printLedger(spansPath string) {
	fmt.Printf("\nledger pass (%d metrics; spans in %s)\n", len(r.PerLayer), spansPath)
	for _, v := range r.PerLayer {
		fmt.Printf("  %-34s %16.4f %s\n", v.Name, v.Value, v.Unit)
	}
}

// driverLine is the one JSON object the driver reads: exactly correct,
// attempted, failed and metrics.
func (r *results) driverLine(workload string, ledger, correct bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: correct, Metrics: map[string]value{}}
	for _, res := range r.Workloads {
		if !ledger && res.Name != workload {
			continue
		}
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		if !ledger {
			for _, def := range endToEnd {
				if mv, ok := res.metric(def.Name); ok {
					line.Metrics[def.Name] = value{mv.Value, mv.Unit}
				}
			}
		}
	}
	if ledger {
		for _, v := range r.PerLayer {
			line.Metrics[v.Name] = value{v.Value, v.Unit}
		}
	}
	line.Attempted = max(line.Attempted, 1)
	b, _ := json.Marshal(line)
	return string(b)
}

// manifest renders BENCHMARK.json from the metric dictionary.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type pl struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []pl     `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl(w))
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range ledgerMetrics() {
		doc.PerLayer = append(doc.PerLayer, pl{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n'), err
}

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// --seconds.
const runSeconds = 12
