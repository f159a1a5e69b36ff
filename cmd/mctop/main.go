// Command mctop infers the MCTOP topology of a machine — one of the five
// simulated platforms of the paper or, best effort, the real host — then
// prints it, optionally renders its Graphviz graphs, validates it against
// the OS view, and saves a description file.
//
// Usage:
//
//	mctop -platform Opteron -dot -out opteron.mct
//	mctop -platform Ivy -validate
//	mctop -host
//	mctop -load opteron.mct
//
// The export and import subcommands move topologies between a registry
// spool (the persistence tier mctopd's -spool-dir uses) and standalone
// description files — the interchange format between the CLI, the library
// (mctop.Load/Save) and the daemon:
//
//	mctop export -spool /var/lib/mctop/spool -platform Ivy -seed 42 -o ivy.mctop
//	mctop import -spool /var/lib/mctop/spool ivy.mctop westmere.mctop
//	mctop fetch -origin http://origin:8077 -platform Ivy -seed 42 -o ivy.mctop
//
// The map subcommand reads task DAGs from NDJSON files and maps each onto
// a platform's topology (internal/taskmap), locally or via a daemon:
//
//	mctop map -platform Ivy -refine 5000 wordcount.dag
//	mctop map -origin http://origin:8077 wordcount.dag pipeline.dag
//
// The place subcommand computes an MCTOP-PLACE thread placement and prints
// the report of the paper's Figure 7:
//
//	mctop place -platform Ivy -policy CON_HWC -threads 30
//	mctop place -load ivy.mct -policy RR_CORE -on-sockets 0 -limit 8
//	mctop place -platform Opteron -all
//
// export resolves the topology through a spool-backed registry — a spool
// hit costs a file decode, a miss runs the inference and leaves the spool
// populated — and writes a description file carrying its registry key as a
// `#key` comment header. import installs description files into a spool:
// files with a key header keep it; bare files get the key of
// (-platform|spec name, -seed, -reps), the triple a daemon or library
// client would look up. fetch pulls the same file from a running mctopd's
// /v1/export endpoint instead of inferring locally — the fleet deployment
// in CLI form.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"

	mctop "repro"
	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/plugins"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/spool"
	"repro/internal/topo"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "export":
			runExport(os.Args[2:])
			return
		case "import":
			runImport(os.Args[2:])
			return
		case "fetch":
			runFetch(os.Args[2:])
			return
		case "map":
			runMap(os.Args[2:])
			return
		case "place":
			runPlace(os.Args[2:])
			return
		}
	}
	runInfer()
}

// runExport materializes one topology as a description file, reading
// through (and writing back to) a spool when one is given.
func runExport(args []string) {
	fs := flag.NewFlagSet("mctop export", flag.ExitOnError)
	var (
		spoolDir = fs.String("spool", "", "spool directory to read through (and populate on a miss)")
		platform = fs.String("platform", "Ivy", "simulated platform: Ivy, Westmere, Haswell, Opteron, SPARC")
		seed     = fs.Uint64("seed", 42, "simulator noise seed")
		reps     = fs.Int("reps", 201, "repetitions per context pair")
		out      = fs.String("o", "-", "output file (- = stdout)")
	)
	fs.Parse(args)
	opt := mctop.NewOptions(mctop.WithReps(*reps))

	reg := spoolRegistry(*spoolDir)
	top, hit, err := reg.LookupTopologyContext(context.Background(), *platform, *seed, opt)
	fail(err)
	fail(reg.Close())

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		fail(err)
		defer f.Close()
		w = f
	}
	// The key header makes the file re-importable under the exact triple a
	// serving registry looks up; topo.Decode skips it as a comment.
	fail(spool.Encode(w, registry.KindTopology, registry.TopoKey(*platform, *seed, opt), top))
	if *out != "-" {
		src := "inferred"
		if hit {
			src = "served from cache/spool"
		}
		fmt.Printf("exported %s (seed %d, %s) to %s\n", *platform, *seed, src, *out)
	}
}

// spoolRegistry is a small registry reading through (and writing back to)
// the spool at dir; with no dir it is memory-only.
func spoolRegistry(dir string) *mctop.Registry {
	if dir == "" {
		return mctop.NewRegistry(16)
	}
	sp, err := spool.New(dir)
	fail(err)
	return mctop.NewRegistry(16, mctop.WithStore(mctop.NewTieredStore(mctop.NewLRUStore(16), sp)))
}

// install opens the spool at dir, lets put write into it, and exits
// nonzero if a write did not land: the spool's cache-tier contract degrades
// write failures to log lines, but an explicit install must fail loudly.
// The error counter is compared around put because the opening scan may
// already have counted skips for unrelated junk in the directory.
func install(dir string, put func(sp *spool.Spool)) {
	sp, err := spool.New(dir)
	fail(err)
	preErrors := sp.Stats()[0].Errors
	put(sp)
	fail(sp.Close())
	if n := sp.Stats()[0].Errors - preErrors; n > 0 {
		fail(fmt.Errorf("%d write(s) into spool %s failed to persist (see log above)", n, dir))
	}
}

// runFetch pulls one topology's description file from a running mctopd via
// its /v1/export endpoint — the CLI face of the fleet tier: the same
// `#key`-headed bytes an edge daemon fetches, written to a file (or
// installed straight into a local spool) without running any inference
// locally.
func runFetch(args []string) {
	fs := flag.NewFlagSet("mctop fetch", flag.ExitOnError)
	var (
		origin   = fs.String("origin", "", "base URL of the mctopd to fetch from (required, e.g. http://origin:8077)")
		platform = fs.String("platform", "Ivy", "simulated platform: Ivy, Westmere, Haswell, Opteron, SPARC")
		seed     = fs.Uint64("seed", 42, "simulator noise seed")
		reps     = fs.Int("reps", 201, "repetitions per context pair")
		out      = fs.String("o", "-", "output file (- = stdout)")
		spoolDir = fs.String("spool", "", "also install the fetched topology into this spool directory")
	)
	fs.Parse(args)
	if *origin == "" {
		fmt.Fprintln(os.Stderr, "usage: mctop fetch -origin URL [-platform P] [-seed N] [-reps R] [-o FILE] [-spool DIR]")
		os.Exit(2)
	}
	opt := mctop.NewOptions(mctop.WithReps(*reps))
	key := registry.TopoKey(*platform, *seed, opt)
	resp, err := http.Get(strings.TrimRight(*origin, "/") + "/v1/export?key=" + url.QueryEscape(key))
	fail(err)
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	fail(err)
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("origin returned %s: %s", resp.Status, strings.TrimSpace(string(body))))
	}
	// Decode before writing anything: a torn, corrupt or mislabeled
	// transfer must not land as a description file.
	top, err := spool.Decode(bytes.NewReader(body), registry.KindTopology, key, nil)
	fail(err)
	// Status lines go to stderr: with -o - the description file owns
	// stdout, and a trailing status line would corrupt the piped output.
	if *out == "-" {
		_, err = os.Stdout.Write(body)
		fail(err)
	} else {
		fail(os.WriteFile(*out, body, 0o644))
		fmt.Fprintf(os.Stderr, "fetched %s (seed %d) from %s to %s\n", *platform, *seed, *origin, *out)
	}
	if *spoolDir != "" {
		install(*spoolDir, func(sp *spool.Spool) {
			sp.Put(registry.KindTopology, key, registry.NewEntry(registry.KindTopology, key, top))
		})
		fmt.Fprintf(os.Stderr, "installed into spool %s as %q\n", *spoolDir, key)
	}
}

// runImport installs description files into a spool.
func runImport(args []string) {
	fs := flag.NewFlagSet("mctop import", flag.ExitOnError)
	var (
		spoolDir = fs.String("spool", "", "spool directory to install into (required)")
		platform = fs.String("platform", "", "platform key for bare files (default: the description's name)")
		seed     = fs.Uint64("seed", 42, "seed key for bare files")
		reps     = fs.Int("reps", 201, "reps key for bare files")
	)
	fs.Parse(args)
	if *spoolDir == "" || fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: mctop import -spool DIR [-platform P] [-seed N] [-reps R] file.mctop...")
		os.Exit(2)
	}
	install(*spoolDir, func(sp *spool.Spool) {
		for _, path := range fs.Args() {
			// The topology codec's own reader: a file exported with a #key
			// line installs under that key, a bare one under the flags'.
			f, err := os.Open(path)
			fail(err)
			key, spec, err := topo.DecodeKeyed(f)
			f.Close()
			var top *topo.Topology
			if err == nil {
				top, err = topo.FromSpec(*spec)
			}
			if err != nil {
				fail(fmt.Errorf("%s: %w", path, err))
			}
			if key == "" {
				name := *platform
				if name == "" {
					name = top.Name()
				}
				key = registry.TopoKey(name, *seed, mctop.NewOptions(mctop.WithReps(*reps)))
			}
			sp.Put(registry.KindTopology, key, registry.NewEntry(registry.KindTopology, key, top))
			fmt.Printf("imported %s as %q\n", path, key)
		}
	})
}

func runInfer() {
	var (
		platform = flag.String("platform", "Ivy", "simulated platform: Ivy, Westmere, Haswell, Opteron, SPARC, or a generated gen:<kind>:s<S>:c<C>:t<T> spec (e.g. gen:circulant:s64:c8:t2)")
		seed     = flag.Uint64("seed", 42, "simulator noise seed")
		reps     = flag.Int("reps", 201, "repetitions per context pair (paper default: 2000)")
		sampling = flag.Bool("sampling", false, "use the sampled sub-O(N²) measurement mode on large platforms (byte-identical results; see internal/mctopalg)")
		host     = flag.Bool("host", false, "infer the real host instead of a simulated platform")
		load     = flag.String("load", "", "load a description file instead of inferring")
		out      = flag.String("out", "", "save the description file here")
		dot      = flag.Bool("dot", false, "print the Graphviz graphs")
		heatmap  = flag.Bool("heatmap", false, "print the latency-table heatmap (Figure 6)")
		csv      = flag.Bool("csv", false, "print the raw latency table as CSV")
		validate = flag.Bool("validate", false, "compare the inferred topology against the OS view")
	)
	flag.Parse()

	// The OS view and the latency table exist only on the simulated-
	// inference path (the table on -host too); asking for an output built
	// from one that will not exist is a usage error, not a silent no-op.
	source := ""
	switch {
	case *load != "":
		source = "-load"
	case *host:
		source = "-host"
	}
	for _, f := range []struct {
		set         bool
		name, needs string
	}{
		{*validate && source != "", "-validate", "the simulated machine's OS view"},
		{*heatmap && source == "-load", "-heatmap", "the measured latency table"},
		{*csv && source == "-load", "-csv", "the measured latency table"},
	} {
		if f.set {
			fmt.Fprintf(os.Stderr, "mctop: %s cannot be used with %s: it needs %s, which %s does not produce\n",
				f.name, source, f.needs, source)
			os.Exit(2)
		}
	}

	var top *mctop.Topology
	var osView *machine.OSView
	var inferRes *mctopalg.Result

	switch {
	case *load != "":
		var err error
		top, err = mctop.Load(*load)
		fail(err)
		fmt.Printf("loaded %s\n", *load)
	case *host:
		fmt.Println("inferring host topology (best effort; the Go runtime is noisy)...")
		t, res, err := mctop.InferHostContext(context.Background(), mctop.WithReps(*reps))
		fail(err)
		top = t
		inferRes = res
		fmt.Printf("measured %d pairs, %d retries, rdtsc overhead ~%d ns\n",
			res.Pairs, res.Retries, res.RdtscOverhead)
	default:
		p, err := sim.ByName(*platform)
		fail(err)
		m, err := machine.NewSim(p, *seed)
		fail(err)
		res, err := mctopalg.InferContext(context.Background(), m, mctopalg.Options{Reps: *reps, Sampling: *sampling})
		fail(err)
		enriched, err := plugins.Enrich(m, res.Topology, nil)
		fail(err)
		top = enriched
		inferRes = res
		v := m.OSView()
		osView = &v
		mode := ""
		if res.Sampled {
			mode = fmt.Sprintf(" (sampled: %d filled, %d fallback blocks)", res.FilledPairs, res.FallbackBlocks)
		}
		fmt.Printf("inferred %s: %d pairs measured%s, %d retries, %.2f simulated seconds\n",
			p.Name, res.Pairs, mode, res.Retries, m.S.SimulatedSeconds(res.Cycles))
	}

	fmt.Println()
	fmt.Print(top.String())

	if *validate && osView != nil {
		fmt.Println()
		diffs := top.CompareOS(osView.CoreOfCtx, osView.SocketOfCtx, osView.NodeOfSocket)
		if len(diffs) == 0 {
			fmt.Println("OS comparison: topologies match")
		} else {
			fmt.Println("OS comparison: DIVERGENCES FOUND (the OS may be misconfigured):")
			for _, d := range diffs {
				fmt.Println("  -", d)
			}
		}
	}

	if *heatmap && inferRes != nil {
		fmt.Println()
		fmt.Print(inferRes.Heatmap())
	}
	if *csv && inferRes != nil {
		fmt.Println()
		fmt.Print(inferRes.CSV())
	}

	if *dot {
		fmt.Println()
		fmt.Println(top.DotIntraSocket(0))
		fmt.Println(top.DotCrossSocket())
	}

	if *out != "" {
		fail(mctop.Save(*out, top))
		fmt.Printf("\ndescription file written to %s\n", *out)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mctop:", err)
		os.Exit(1)
	}
}
