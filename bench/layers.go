package main

// Every product symbol the benchmark uses is referenced from this file,
// through the facade and the context-first forms only, so a later signature
// change is a one-file follow-up. It holds three things: what the daemon
// workloads need to know about a platform, the lib_client workload's ops,
// and the in-process half of the layer ladder.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	mctop "repro"
	"repro/internal/machine"
	"repro/internal/mctopalg"
	"repro/internal/place"
	"repro/internal/plugins"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/taskmap"
	"repro/internal/topo"
)

const (
	smallPlatform   = "Ivy"                 // 40 contexts: per-inference fixed cost
	largePlatform   = "SPARC"               // 256 contexts: the O(N^2) term
	sampledPlatform = "gen:mesh:s16:c16:t2" // 512 contexts: the sampled scheduler
)

func goldenPlatforms() []string { return mctop.Platforms() }

// goldenPath is the committed description file of a golden platform at
// seed 42, reps 51. Read at run time: regenerating the goldens on purpose
// must not require editing the benchmark.
func goldenPath(root, platform string) string {
	return filepath.Join(root, "internal", "topo", "testdata", strings.ToLower(platform)+".mctop")
}

var dims sync.Map // platform name -> [3]int

// platformDims is the ground truth a served topology is checked against:
// the simulated machine's own context, core and socket counts.
func platformDims(name string) (contexts, cores, sockets int, err error) {
	if v, ok := dims.Load(name); ok {
		d := v.([3]int)
		return d[0], d[1], d[2], nil
	}
	p, err := sim.ByName(name)
	if err != nil {
		return 0, 0, 0, err
	}
	dims.Store(name, [3]int{p.NumContexts(), p.NumCores(), p.Sockets})
	return p.NumContexts(), p.NumCores(), p.Sockets, nil
}

var taskDAGs sync.Map // *dag -> *mctop.TaskDAG

// taskDAG converts a generated DAG into the product's type through the
// JSON shape POST /v1/map accepts, once per DAG.
func taskDAG(d *dag) *mctop.TaskDAG {
	if v, ok := taskDAGs.Load(d); ok {
		return v.(*mctop.TaskDAG)
	}
	b, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	out := new(mctop.TaskDAG)
	if err := json.Unmarshal(b, out); err != nil {
		panic(err)
	}
	taskDAGs.Store(d, out)
	return out
}

// --- lib_client ---------------------------------------------------------

const (
	libPlace = iota
	libMapGreedy
	libMapRefine
)

// libOp is one library call of the lib_client workload. run returns what
// the call produced (contexts handed out, or the assignment followed by the
// cost) for the output check, which happens outside the timed call.
type libOp struct {
	class int
	name  string
	run   func() ([]int, error)
	// contexts and want bound a placement's answer: at most `want` distinct
	// contexts of a machine with `contexts` (none pins nothing at all).
	contexts, want int
	none           bool
}

// libSetup infers the five golden platforms (the one inference per machine
// an application pays) and checks each against its committed fixture.
func libSetup(ctx context.Context, root string) (map[string]*mctop.Topology, error) {
	tops := map[string]*mctop.Topology{}
	for _, p := range goldenPlatforms() {
		t, err := mctop.Infer(ctx, p, 42, mctop.WithReps(51))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		spec := t.Spec()
		if err := topo.Encode(&buf, &spec); err != nil {
			return nil, err
		}
		golden, err := os.ReadFile(goldenPath(root, p))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(buf.Bytes(), golden) {
			return nil, fmt.Errorf("mctop.Infer(%s, 42, reps 51) differs from %s", p, goldenPath(root, p))
		}
		tops[p] = t
	}
	return tops, nil
}

// libOps is one pass: for each platform, every policy its topology
// supports x 4 thread counts through NewAlloc + pin all + unpin all, then
// the DAGs through taskmap.Map at refine 0 and 200.
func libOps(ctx context.Context, tops map[string]*mctop.Topology, dags []dag) ([]libOp, error) {
	var ops []libOp
	platforms := goldenPlatforms()
	for _, p := range platforms {
		top := tops[p]
		n := top.NumHWContexts()
		for _, name := range mctop.PolicyNames() {
			pol, err := mctop.ResolvePolicy(name)
			if err != nil {
				return nil, err
			}
			if pol == mctop.PowerPolicy && !top.Power().Available() {
				continue
			}
			for _, threads := range []int{2, top.NumCores() / 2, top.NumCores(), n} {
				top, pol, threads := top, pol, threads
				ops = append(ops, libOp{
					class: libPlace, name: fmt.Sprintf("%s %s x%d", p, name, threads),
					contexts: n, want: threads, none: pol == mctop.None,
					run: func() ([]int, error) {
						a, err := mctop.NewAlloc(top, pol, mctop.WithThreads(threads))
						if err != nil {
							return nil, err
						}
						got := make([]int, a.NumHWContexts())
						for i := range got {
							if got[i], err = a.Pin(i); err != nil {
								return nil, err
							}
						}
						for i := range got {
							if err := a.Unpin(i); err != nil {
								return nil, err
							}
						}
						return got, nil
					},
				})
			}
		}
	}
	for i := range dags {
		top, d := tops[platforms[i%len(platforms)]], taskDAG(&dags[i])
		for _, refine := range []int{0, 200} {
			refine, class := refine, libMapGreedy
			if refine > 0 {
				class = libMapRefine
			}
			ops = append(ops, libOp{
				class: class, name: fmt.Sprintf("%s %s refine %d", top.Name(), d.Name, refine),
				contexts: top.NumHWContexts(), want: len(d.Nodes),
				run: func() ([]int, error) {
					m, err := taskmap.Map(ctx, top, d, taskmap.Options{RefineBudget: refine})
					if err != nil {
						return nil, err
					}
					return append(m.Assignment(), int(m.Cost())), nil
				},
			})
		}
	}
	return ops, nil
}

// --- the in-process ladder ------------------------------------------------

var sink int64 // keeps measured calls from being optimised away

// ladder measures public calls one layer at a time: each repetition is a
// span, a metric is the median repetition divided by the calls in it.
type ladder struct {
	rec    *recorder
	parent int
	op     int
	out    map[string]float64
	err    error
}

func (l *ladder) fail(err error) {
	if l.err == nil && err != nil {
		l.err = err
	}
}

// measure runs fn `reps` times, each a span of `batch` calls, and returns
// the median time of one call in nanoseconds.
func (l *ladder) measure(span string, reps, batch int, fn func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		d := l.rec.do(span, l.parent, l.op, func() {
			for b := 0; b < batch; b++ {
				fn()
			}
		})
		per[r] = float64(d) / float64(batch)
	}
	return median(per)
}

// group opens a parent span for the measurements of one ladder rung.
func (l *ladder) group(name string, fn func()) {
	l.op = l.rec.nextOp()
	id := l.rec.start(name, 0, l.op)
	l.parent = id
	fn()
	l.parent = 0
	l.rec.end(id)
}

func usOf(ns float64) float64 { return ns / 1e3 }
func msOf(ns float64) float64 { return ns / 1e6 }

// allocsOf counts the heap allocations of fn. Exact when nothing else
// allocates meanwhile, which holds for the single-goroutine ladder.
func allocsOf(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

func everyOther(n, count int) []int {
	out := make([]int, 0, count)
	for c := 0; c < n && len(out) < count; c += 2 {
		out = append(out, c)
	}
	return out
}

// ladderInProcess measures the layers an application links: topo, sim,
// mctopalg, plugins, the facade, place, taskmap/graph and the registry.
// Inferences run at `reps` repetitions per pair (the daemon default for a
// full run, so the rungs line up with infer_cold).
func ladderInProcess(rec *recorder, root string, reps int, big *dag) (map[string]float64, error) {
	ctx := context.Background()
	l := &ladder{rec: rec, out: map[string]float64{}}
	out := l.out
	const seed = 42

	ivy, err := mctop.Load(goldenPath(root, smallPlatform))
	if err != nil {
		return nil, err
	}
	westmere, err := mctop.Load(goldenPath(root, "Westmere"))
	if err != nil {
		return nil, err
	}
	sparc, err := mctop.Load(goldenPath(root, largePlatform))
	if err != nil {
		return nil, err
	}

	l.group("ladder.topo", func() {
		n := sparc.NumHWContexts()
		pairs := newRNG(seed, "ladder.pairs")
		xs, ys := make([]int, 1024), make([]int, 1024)
		for i := range xs {
			xs[i], ys[i] = pairs.intn(n), pairs.intn(n)
		}
		sparc.GetLatency(0, 1) // build the index outside the measurement
		i := 0
		out["topo.get_latency_ns"] = l.measure("topo.get_latency", 25, 4096, func() {
			sink += sparc.GetLatency(xs[i&1023], ys[i&1023])
			i++
		})
		ctxs64 := everyOther(westmere.NumHWContexts(), 64)
		out["topo.max_latency_between_ns"] = l.measure("topo.max_latency_between", 25, 200, func() {
			sink += westmere.MaxLatencyBetween(ctxs64)
		})
		out["topo.socket_order_ns"] = l.measure("topo.socket_order", 25, 1000, func() {
			sink += int64(len(westmere.SocketsByLatencyFrom(i % westmere.NumSockets())))
			i++
		})
		out["topo.contexts_by_latency_us"] = usOf(l.measure("topo.contexts_by_latency", 25, 20, func() {
			sink += int64(sparc.ContextsByLatencyFrom(i % n)[0])
			i++
		}))
		ctxs20 := everyOther(ivy.NumHWContexts(), 20)
		out["topo.power_estimate_ns"] = l.measure("topo.power_estimate", 25, 1000, func() {
			_, total := ivy.PowerEstimate(ctxs20, true)
			sink += int64(total)
		})

		var desc bytes.Buffer
		spec := sparc.Spec()
		out["topo.encode_us"] = usOf(l.measure("topo.encode", 25, 20, func() {
			desc.Reset()
			l.fail(topo.Encode(&desc, &spec))
		}))
		out["topo.desc_bytes"] = float64(desc.Len())
		var fresh []*mctop.Topology
		out["topo.decode_us"] = usOf(l.measure("topo.decode", 25, 20, func() {
			s, err := topo.Decode(bytes.NewReader(desc.Bytes()))
			if err != nil {
				l.fail(err)
				return
			}
			t, err := topo.FromSpec(*s)
			l.fail(err)
			fresh = append(fresh, t)
		}))
		if l.err != nil {
			return
		}
		out["topo.index_build_us"] = usOf(l.measure("topo.index_build", 25, 1, func() {
			t := fresh[len(fresh)-1]
			fresh = fresh[:len(fresh)-1]
			sink += t.GetLatency(0, 1)
		}))
	})

	l.group("ladder.sim", func() {
		p, err := sim.ByName(largePlatform)
		if err != nil {
			l.fail(err)
			return
		}
		var m *machine.SimMachine
		out["sim.new_us"] = usOf(l.measure("sim.new", 25, 4, func() {
			m, err = machine.NewSim(p, seed)
			l.fail(err)
		}))
		if l.err != nil {
			return
		}
		i := 0
		fork := func() {
			_, err := m.ForkPair(i%255, i%255+1)
			l.fail(err)
			i++
		}
		out["sim.fork_us"] = usOf(l.measure("sim.fork", 25, 20, fork))
		out["sim.fork_allocs"] = allocsOf(fork)
		out["sim.generate_ms"] = msOf(l.measure("sim.generate", 5, 1, func() {
			_, err := sim.ByName(sampledPlatform)
			l.fail(err)
		}))
	})

	// One inference and its parts, outside in: per repetition one parent
	// span with the facade call and then the three calls it is made of as
	// children, on the same seed. What the facade adds itself is what is
	// left of its time when the three are taken away.
	type inferred struct {
		alg, enrich, self float64 // ns, medians over repetitions
		res               *mctopalg.Result
	}
	infer := func(platform string, n int, opts ...mctop.Option) (inf inferred) {
		opts = append(opts, mctop.WithReps(reps))
		p, err := sim.ByName(platform)
		l.fail(err)
		var alg, enrich, self []float64
		for r := 0; r < n && l.err == nil; r++ {
			op := l.rec.nextOp()
			parent := l.rec.start("ladder.infer", l.parent, op)
			total := l.rec.do("mctop.infer", parent, op, func() {
				_, err := mctop.Infer(ctx, platform, seed, opts...)
				l.fail(err)
			})
			var m *machine.SimMachine
			simNew := l.rec.do("sim.new", parent, op, func() {
				m, err = machine.NewSim(p, seed)
				l.fail(err)
			})
			if l.err != nil {
				return inf
			}
			a := l.rec.do("mctopalg.infer", parent, op, func() {
				inf.res, err = mctopalg.InferContext(ctx, m, mctop.NewOptions(opts...))
				l.fail(err)
			})
			if l.err != nil {
				return inf
			}
			e := l.rec.do("plugins.enrich", parent, op, func() {
				_, err := plugins.Enrich(m, inf.res.Topology, nil)
				l.fail(err)
			})
			l.rec.end(parent)
			alg, enrich, self = append(alg, float64(a)), append(enrich, float64(e)), append(self, float64(total-simNew-a-e))
		}
		inf.alg, inf.enrich, inf.self = median(alg), median(enrich), median(self)
		return inf
	}
	// serial is one inference on one worker: wall time and exact allocations.
	serial := func(platform string) (float64, float64, *mctopalg.Result) {
		p, err := sim.ByName(platform)
		if err != nil {
			l.fail(err)
			return 0, 0, nil
		}
		m, err := machine.NewSim(p, seed)
		if err != nil {
			l.fail(err)
			return 0, 0, nil
		}
		var (
			res *mctopalg.Result
			d   time.Duration
		)
		allocs := allocsOf(func() {
			start := time.Now()
			res, err = mctopalg.InferContext(ctx, m, mctop.NewOptions(mctop.WithReps(reps), mctop.WithParallelism(1)))
			d = time.Since(start)
		})
		l.fail(err)
		return float64(d), allocs, res
	}

	l.group("ladder.infer_small", func() {
		inf := infer(smallPlatform, 7)
		if l.err != nil {
			return
		}
		out["mctopalg.infer_small_ms"] = msOf(inf.alg)
		out["plugins.enrich_small_ms"] = msOf(inf.enrich)
		out["mctop.infer_self_us"] = usOf(inf.self)
		_, out["mctopalg.allocs_small"], _ = serial(smallPlatform)
		p, _ := sim.ByName(smallPlatform)
		m, err := machine.NewSim(p, seed)
		if err != nil {
			l.fail(err)
			return
		}
		out["plugins.enrich_allocs"] = allocsOf(func() {
			_, err := plugins.Enrich(m, inf.res.Topology, nil)
			l.fail(err)
		})
	})
	l.group("ladder.infer_large", func() {
		inf := infer(largePlatform, 3)
		if l.err != nil {
			return
		}
		out["mctopalg.infer_large_ms"] = msOf(inf.alg)
		out["plugins.enrich_large_ms"] = msOf(inf.enrich)
		d, allocs, res := serial(largePlatform)
		if l.err != nil {
			return
		}
		out["mctopalg.allocs_large"] = allocs
		out["mctopalg.pair_us"] = usOf(d) / float64(res.Pairs)
		out["mctopalg.retries"] = float64(res.Retries)
		out["mctopalg.sim_cycles"] = float64(res.Cycles)
	})
	l.group("ladder.infer_sampled", func() {
		inf := infer(sampledPlatform, 3, mctop.WithSampling())
		if l.err != nil {
			return
		}
		n := float64(inf.res.Topology.NumHWContexts())
		out["mctopalg.infer_sampled_ms"] = msOf(inf.alg)
		out["mctopalg.pairs_measured"] = float64(inf.res.Pairs)
		out["mctopalg.measured_ratio"] = 100 * float64(inf.res.Pairs) / (n * (n - 1) / 2)
		out["mctopalg.fallback_blocks"] = float64(inf.res.FallbackBlocks)
	})

	l.group("ladder.place", func() {
		alloc := func() {
			a, err := mctop.NewAlloc(westmere, mctop.RRCore, mctop.WithThreads(32))
			if err != nil {
				l.fail(err)
				return
			}
			for i := 0; i < 32; i++ {
				c, _ := a.Pin(i)
				sink += int64(c)
			}
			for i := 0; i < 32; i++ {
				l.fail(a.Unpin(i))
			}
		}
		out["mctop.alloc_cycle_us"] = usOf(l.measure("mctop.alloc_cycle", 25, 100, alloc))
		build := func(top *mctop.Topology, pol mctop.Policy, threads int) func() {
			return func() {
				pl, err := place.NewFrom(top, pol, place.Options{NThreads: threads})
				l.fail(err)
				sink += int64(pl.NThreads())
			}
		}
		out["place.build_seq_us"] = usOf(l.measure("place.build", 25, 100, build(westmere, mctop.Sequential, 64)))
		out["place.build_con_us"] = usOf(l.measure("place.build", 25, 100, build(westmere, mctop.ConCoreHWC, 64)))
		out["place.build_balance_us"] = usOf(l.measure("place.build", 25, 100, build(westmere, mctop.BalanceCore, 64)))
		out["place.build_rr_us"] = usOf(l.measure("place.build", 25, 100, build(westmere, mctop.RRCore, 64)))
		out["place.build_power_us"] = usOf(l.measure("place.build", 25, 100, build(ivy, mctop.PowerPolicy, 20)))
		out["place.build_allocs"] = allocsOf(build(westmere, mctop.RRCore, 64))
		if l.err != nil {
			return
		}
		pl, err := place.NewFrom(westmere, mctop.RRCore, place.Options{NThreads: 64})
		if err != nil {
			l.fail(err)
			return
		}
		// Unpinning is a linear scan, so a batch is 64 pins on a fresh
		// placement; the build is one call in 65 and outside the claim.
		pins := make([]float64, 200)
		for r := range pins {
			fresh, _ := place.NewFrom(westmere, mctop.RRCore, place.Options{NThreads: 64})
			pins[r] = float64(l.rec.do("place.pin_next", l.parent, l.op, func() {
				for i := 0; i < 64; i++ {
					c, _ := fresh.PinNext()
					sink += int64(c)
				}
			})) / 64
		}
		out["place.pin_next_ns"] = median(pins)
		out["place.report_us"] = usOf(l.measure("place.report", 25, 100, func() { sink += int64(len(pl.String())) }))
		name, ctxs := pl.PolicyName(), pl.Contexts()
		out["place.reconstruct_us"] = usOf(l.measure("place.reconstruct", 25, 100, func() {
			_, err := place.Reconstruct(westmere, name, ctxs)
			l.fail(err)
		}))
	})

	d := taskDAG(big)
	l.group("ladder.taskmap", func() {
		var mp *taskmap.Mapping
		out["taskmap.greedy_us"] = usOf(l.measure("taskmap.map", 25, 10, func() {
			var err error
			mp, err = taskmap.Map(ctx, westmere, d, taskmap.Options{})
			l.fail(err)
		}))
		out["taskmap.refine_ms"] = msOf(l.measure("taskmap.map", 15, 2, func() {
			_, err := taskmap.Map(ctx, westmere, d, taskmap.Options{RefineBudget: 200})
			l.fail(err)
		}))
		if l.err != nil {
			return
		}
		assign := mp.Assignment()
		out["taskmap.estimate_ns"] = l.measure("taskmap.estimate", 25, 100, func() {
			c, err := taskmap.Estimate(westmere, d, assign)
			l.fail(err)
			sink += c
		})
		out["graph.dag_hash_us"] = usOf(l.measure("graph.dag_hash", 25, 100, func() {
			d.Normalize()
			sink += int64(d.Hash())
		}))
	})

	l.group("ladder.registry", func() {
		reg := mctop.NewRegistry(256)
		opt := mctop.NewOptions(mctop.WithReps(51))
		batch := make([]mctop.PlaceRequest, 8)
		for i := range batch {
			batch[i] = mctop.PlaceRequest{Policy: placePolicies[i], NThreads: 4 + i}
		}
		topoHit := func() {
			t, _, err := reg.LookupTopologyContext(ctx, smallPlatform, seed, opt)
			l.fail(err)
			sink += int64(t.NumHWContexts())
		}
		placeHit := func() {
			pl, err := reg.PlaceContext(ctx, smallPlatform, seed, opt, "RR_CORE", 8)
			l.fail(err)
			sink += int64(pl.NThreads())
		}
		mapHit := func() {
			m, err := reg.MapDAGContext(ctx, smallPlatform, seed, opt, d, 200)
			l.fail(err)
			sink += m.Cost()
		}
		batchHit := func() {
			res, err := reg.PlaceBatchContext(ctx, smallPlatform, seed, opt, batch)
			l.fail(err)
			sink += int64(len(res))
		}
		for _, prime := range []func(){topoHit, placeHit, mapHit, batchHit} {
			prime()
		}
		if l.err != nil {
			return
		}
		computed := reg.Stats()
		out["registry.topology_hit_ns"] = l.measure("registry.lookup", 25, 2000, topoHit)
		out["registry.place_hit_ns"] = l.measure("registry.lookup", 25, 2000, placeHit)
		out["registry.map_hit_ns"] = l.measure("registry.lookup", 25, 1000, mapHit)
		out["registry.batch8_hit_us"] = usOf(l.measure("registry.lookup", 25, 500, batchHit))
		out["registry.hit_allocs"] = allocsOf(placeHit)
		if st := reg.Stats(); st.Misses != computed.Misses {
			l.fail(fmt.Errorf("registry ladder: %d lookups missed a warm LRU", st.Misses-computed.Misses))
		}
	})
	return out, l.err
}

// --- the tier half of the ladder ----------------------------------------------

// lookup resolves one key through a registry's public context-first API.
func lookup(ctx context.Context, reg *mctop.Registry, k keySpec) error {
	opt := mctop.NewOptions(mctop.WithReps(k.Reps))
	switch k.Kind {
	case kindPlacement:
		pl, err := reg.PlaceContext(ctx, k.Platform, k.Seed, opt, k.Policy, k.Threads)
		if err == nil && pl.NThreads() != k.Threads {
			err = fmt.Errorf("%v: placement of %d threads", k, pl.NThreads())
		}
		return err
	case kindMapping:
		m, err := reg.MapDAGContext(ctx, k.Platform, k.Seed, opt, taskDAG(k.DAG), k.Refine)
		if err == nil && m.NumNodes() != len(k.DAG.Nodes) {
			err = fmt.Errorf("%v: mapping of %d nodes", k, m.NumNodes())
		}
		return err
	}
	_, _, err := reg.LookupTopologyContext(ctx, k.Platform, k.Seed, opt)
	return err
}

// lookupAll resolves keys in the given order through reg, one span each,
// and returns the median lookup time per kind. The registry must answer
// from its tiers alone: a compute means the tier under test was bypassed.
func (l *ladder) lookupAll(ctx context.Context, span string, reg *mctop.Registry, keys []keySpec, order []int) [3]float64 {
	var per [3][]float64
	for _, i := range order {
		k := keys[i]
		d := l.rec.do(span, l.parent, l.op, func() { l.fail(lookup(ctx, reg, k)) })
		per[k.Kind] = append(per[k.Kind], float64(d))
	}
	if st := reg.Stats(); st.Inferences+st.Placements+st.Mappings != 0 {
		l.fail(fmt.Errorf("%s: %d inferences, %d placements, %d mappings computed; every key should come from a tier",
			span, st.Inferences, st.Placements, st.Mappings))
	}
	var med [3]float64
	for kind := range per {
		med[kind] = median(per[kind])
	}
	return med
}

// spoolEntry is one file of a spool directory, identified by its `#key`
// header and its extension: the on-disk format is a fixed point of the repo.
type spoolEntry struct {
	kind int
	key  string
	size int64
}

func scanSpool(dir string) ([]spoolEntry, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	kinds := map[string]int{".mctop": kindTopology, ".place": kindPlacement, ".map": kindMapping}
	var out []spoolEntry
	for _, de := range des {
		kind, ok := kinds[filepath.Ext(de.Name())]
		if !ok || de.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			return nil, err
		}
		line, _, _ := bytes.Cut(b, []byte("\n"))
		key, ok := bytes.CutPrefix(line, []byte("#key "))
		if !ok {
			return nil, fmt.Errorf("%s: no #key header", de.Name())
		}
		out = append(out, spoolEntry{kind, string(key), int64(len(b))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

func spoolBytes(entries []spoolEntry) (total int64) {
	for _, e := range entries {
		total += e.size
	}
	return total
}

func copySpool(src, dst string) error {
	des, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

var registryKinds = [...]registry.Kind{registry.KindTopology, registry.KindPlacement, registry.KindMapping}

// ladderTiers measures the spool and remote tiers from outside: registries
// whose LRU holds one entry, so every lookup falls through to the one tier
// configured under it. spoolDir is the origin's 660-entry spool (copied, so
// the origin's own directory is only read), originURL the warm origin.
func ladderTiers(rec *recorder, tmp, spoolDir, originURL string, keys []keySpec, order []int) (map[string]float64, error) {
	ctx := context.Background()
	l := &ladder{rec: rec, out: map[string]float64{}}
	out := l.out
	entries, err := scanSpool(spoolDir)
	if err != nil {
		return nil, err
	}
	if len(entries) != len(keys) {
		return nil, fmt.Errorf("origin spool holds %d entries, want the %d primed keys", len(entries), len(keys))
	}
	out["spool.bytes_total"] = float64(spoolBytes(entries))
	dir := filepath.Join(tmp, "ladder-spool")
	empty := filepath.Join(tmp, "ladder-spool-empty")
	for _, d := range []string{dir, empty} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if err := copySpool(spoolDir, dir); err != nil {
		return nil, err
	}

	l.group("ladder.spool", func() {
		var reg *mctop.Registry
		opens := make([]float64, 7)
		for r := range opens {
			if reg != nil {
				l.fail(reg.Close())
			}
			opens[r] = float64(l.rec.do("spool.open_scan", l.parent, l.op, func() {
				reg = mctop.NewRegistry(1, mctop.WithSpoolDir(dir))
			}))
		}
		out["spool.open_scan_ms"] = msOf(median(opens))
		read := l.lookupAll(ctx, "registry.lookup[spool]", reg, keys, order)
		out["spool.topology_read_us"] = usOf(read[kindTopology])
		out["spool.place_read_us"] = usOf(read[kindPlacement])
		out["spool.map_read_us"] = usOf(read[kindMapping])

		// 660 puts + Flush: the values come straight from the spool tier,
		// the destination is a registry over an empty directory.
		src := reg.Store()
		vals := make([]any, len(entries))
		for i, e := range entries {
			v, ok := src.Get(registryKinds[e.kind], e.key)
			if !ok {
				l.fail(fmt.Errorf("spool ladder: %q not readable", e.key))
				return
			}
			vals[i] = v
		}
		l.fail(reg.Close())
		dst := mctop.NewRegistry(1, mctop.WithSpoolDir(empty))
		out["spool.put_flush_ms"] = msOf(l.measure("spool.put_flush", 1, 1, func() {
			for i, e := range entries {
				dst.Store().Put(registryKinds[e.kind], e.key, vals[i])
			}
			l.fail(dst.Flush())
		}))
		l.fail(dst.Close())
		written, err := scanSpool(empty)
		l.fail(err)
		if err == nil && (len(written) != len(entries) || spoolBytes(written) != spoolBytes(entries)) {
			l.fail(fmt.Errorf("spool ladder: wrote %d entries / %d bytes, read %d / %d",
				len(written), spoolBytes(written), len(entries), spoolBytes(entries)))
		}
	})
	if l.err != nil {
		return nil, l.err
	}

	l.group("ladder.remote", func() {
		reg := mctop.NewRegistry(1, mctop.WithUpstream(originURL))
		fetch := l.lookupAll(ctx, "registry.lookup[remote]", reg, keys, order)
		out["remote.topology_fetch_us"] = usOf(fetch[kindTopology])
		out["remote.place_fetch_us"] = usOf(fetch[kindPlacement])
		out["remote.map_fetch_us"] = usOf(fetch[kindMapping])
		for _, tier := range reg.Stats().Tiers {
			if tier.Tier == "remote" {
				if tier.Errors != 0 {
					l.fail(fmt.Errorf("remote ladder: %d fetch errors", tier.Errors))
				}
				out["remote.fetches_per_key"] = float64(tier.Hits+tier.Misses) / float64(len(keys))
			}
		}
		l.fail(reg.Close())
	})
	return out, l.err
}
