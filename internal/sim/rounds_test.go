package sim

import (
	"fmt"
	"slices"
	"testing"
)

// roundsReference is Figure 5's lock-step loop as MCTOP-ALG ran it before
// the simulator ran it itself: one Barrier, CAS and Rdtsc call at a time
// (through the machine interfaces, which only unwrap to these methods). It
// is the oracle Rounds is checked against.
func roundsReference(s *Sim, x, y *Thread, reps int, overhead int64, dst []int64) []int64 {
	vals := dst[:0]
	for i := 0; i < reps; i++ {
		s.Barrier(x, y)
		y.CAS(roundsLine)
		s.Barrier(x, y)
		start := x.Rdtsc()
		x.CAS(roundsLine)
		end := x.Rdtsc()
		v := end - start - overhead
		if v < 0 {
			v = 0
		}
		vals = append(vals, v)
	}
	return vals
}

// roundsState is everything a round leaves behind that a later operation
// can observe.
type roundsState struct {
	xNow, yNow   int64
	xBusy, yBusy int64
	holder       int
	opCtr        uint64
	nextNoise    int64
}

func stateOf(s *Sim, x, y *Thread) roundsState {
	st := roundsState{
		xNow: x.now, yNow: y.now,
		xBusy: *s.busyOf(x.core), yBusy: *s.busyOf(y.core),
		holder: *s.holder(roundsLine),
		opCtr:  s.opCtr,
	}
	st.nextNoise = s.noise()
	s.opCtr-- // a peek: leave the stream where it was
	return st
}

// roundsPair is one pair on two identical simulators: Rounds runs on one,
// the reference loop on the other.
type roundsPair struct {
	fast, ref       *Sim
	fastX, fastY    *Thread
	refX, refY      *Thread
	overhead        int64
	fastBuf, refBuf []int64
}

func newRoundsPair(t *testing.T, p *Platform, seed uint64, xCtx, yCtx int, overhead int64) *roundsPair {
	t.Helper()
	rp := &roundsPair{overhead: overhead}
	for _, side := range []struct {
		s    **Sim
		x, y **Thread
	}{{&rp.fast, &rp.fastX, &rp.fastY}, {&rp.ref, &rp.refX, &rp.refY}} {
		s, err := New(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		x, err := s.NewThread(xCtx)
		if err != nil {
			t.Fatal(err)
		}
		y, err := s.NewThread(yCtx)
		if err != nil {
			t.Fatal(err)
		}
		*side.s, *side.x, *side.y = s, x, y
	}
	return rp
}

// setBusy puts both cores of both sides at the given busy work.
func (rp *roundsPair) setBusy(n int64) {
	for _, s := range []struct {
		s    *Sim
		x, y *Thread
	}{{rp.fast, rp.fastX, rp.fastY}, {rp.ref, rp.refX, rp.refY}} {
		*s.s.busyOf(s.x.core) = n
		*s.s.busyOf(s.y.core) = n
	}
}

// call runs one round of reps on both sides and fails on any difference
// in the samples or in the state left behind.
func (rp *roundsPair) call(t *testing.T, what string, reps int) []int64 {
	t.Helper()
	rp.fastBuf = rp.fast.Rounds(rp.fastX, rp.fastY, reps, rp.overhead, rp.fastBuf)
	rp.refBuf = roundsReference(rp.ref, rp.refX, rp.refY, reps, rp.overhead, rp.refBuf)
	if !slices.Equal(rp.fastBuf, rp.refBuf) {
		t.Fatalf("%s: samples differ\nRounds    %v\nreference %v", what, rp.fastBuf, rp.refBuf)
	}
	if got, want := stateOf(rp.fast, rp.fastX, rp.fastY), stateOf(rp.ref, rp.refX, rp.refY); got != want {
		t.Fatalf("%s: state after the round differs\nRounds    %+v\nreference %+v", what, got, want)
	}
	return rp.fastBuf
}

// roundsPairs returns the pairs Rounds is checked on: two threads on one
// context (every CAS a hit), two SMT siblings of one core, two cores of one
// socket and two sockets, as far as the platform has them.
func roundsPairs(p *Platform) map[string][2]int {
	pairs := map[string][2]int{"self": {0, 0}}
	if p.SMT > 1 {
		pairs["smt"] = [2]int{p.ContextOf(0, 0), p.ContextOf(0, 1)}
	}
	if p.Cores > 1 {
		pairs["socket"] = [2]int{p.ContextOf(0, 0), p.ContextOf(p.Cores-1, 0)}
	}
	if p.Sockets > 1 {
		pairs["cross"] = [2]int{p.ContextOf(1, 0), p.ContextOf(p.NumCores()-1, 0)}
	}
	return pairs
}

// TestRoundsMatchesReference checks the simulator's Figure 5 loop against
// the method-by-method one on every pair kind of the goldens and four
// generated shapes: a first call (nobody holds the line yet) and a retry on
// the same threads, at 1, 2 and 201 repetitions, with cores that are cold,
// warm, or a few repetitions short of the end of their frequency ramp (a
// pair that skipped its DVFS wait, so the round turns steady mid-call).
// Three generated shapes draw no noise, so their rounds end in closed form;
// gen:ring:s6:c2:t2:n1 is the same ring with the goldens' noise model,
// whose rounds must not, and neither may those of two small machines that
// draw only jitter or only spikes.
func TestRoundsMatchesReference(t *testing.T) {
	jitterOnly := Custom("jitter-only", 2, 2, 2, 1, NumberingIntelHalves)
	spikesOnly := Custom("spikes-only", 2, 2, 2, 1, NumberingIntelHalves)
	spikesOnly.NoiseAmp, spikesOnly.SpuriousRate, spikesOnly.SpuriousAmp = 0, 0.05, 1800
	platforms := []*Platform{jitterOnly, spikesOnly}
	for _, name := range []string{"Ivy", "Westmere", "Haswell", "Opteron", "SPARC",
		"gen:ring:s6:c2:t2", "gen:circulant:s16:c4:t2", "gen:mesh:s16:c16:t2", "gen:ring:s6:c2:t2:n1"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		platforms = append(platforms, p)
	}
	for _, p := range platforms {
		for kind, pair := range roundsPairs(p) {
			for _, reps := range []int{1, 2, 201} {
				warmups := []string{"warm"}
				if p.DVFS {
					warmups = append(warmups, "cold", "mid-ramp")
				}
				for _, warm := range warmups {
					what := fmt.Sprintf("%s %s %v reps %d %s", p.Name, kind, pair, reps, warm)
					rp := newRoundsPair(t, p, 7, pair[0], pair[1], p.RdtscOverhead)
					switch warm {
					case "warm":
						rp.setBusy(p.tab.dvfsRampEnd)
					case "mid-ramp":
						rp.setBusy(p.tab.dvfsRampEnd - 20_000)
					}
					rp.call(t, what+" first call", reps)
					vals := rp.call(t, what+" retry", reps)
					if (p.NoiseAmp > 0 || p.SpuriousRate > 0) && reps == 201 && slices.Min(vals) == slices.Max(vals) {
						t.Fatalf("%s: a noisy round of %d equal samples", what, reps)
					}
				}
			}
		}
	}
}

// TestRoundsTurnsSteadyMidCall makes sure the mid-ramp case above really
// switches from the method-by-method repetitions to the arithmetic inside
// one call, rather than passing because it never reaches either.
func TestRoundsTurnsSteadyMidCall(t *testing.T) {
	p := Ivy()
	rp := newRoundsPair(t, p, 7, 0, 1, p.RdtscOverhead)
	rp.setBusy(p.tab.dvfsRampEnd - 20_000)
	if rp.fast.steady(rp.fastX, rp.fastY) {
		t.Fatal("steady before the first repetition")
	}
	rp.call(t, "mid-ramp", 201)
	if !rp.fast.steady(rp.fastX, rp.fastY) {
		t.Fatal("not steady after 201 repetitions: the arithmetic path never ran")
	}
}

// TestRoundsClamps runs a platform whose jitter exceeds its pair latencies,
// so that a CAS's cost clamps at 1 cycle and, with a large enough overhead
// deducted, a sample clamps at 0 — both on Rounds' arithmetic path.
func TestRoundsClamps(t *testing.T) {
	p := Custom("clamps", 2, 2, 2, 1, NumberingIntelHalves)
	p.NoiseAmp = 4 * p.SameCoreLat
	p.SpuriousRate = 0.01
	for _, c := range []struct {
		name     string
		overhead int64 // deducted from every sample
		floor    int64 // the sample a cost clamped at 1 cycle yields
	}{
		{"cost clamp", p.RdtscOverhead, 1},
		{"sample clamp", p.RdtscOverhead + p.SameCoreLat, 0},
	} {
		rp := newRoundsPair(t, p, 3, p.ContextOf(0, 0), p.ContextOf(0, 1), c.overhead)
		rp.call(t, c.name+" first call", 201)
		vals := rp.call(t, c.name+" retry", 201)
		clamped := 0
		for _, v := range vals {
			if v == c.floor {
				clamped++
			}
		}
		if clamped < len(vals)/10 {
			t.Errorf("%s: %d of %d samples at %d; the clamp is not exercised", c.name, clamped, len(vals), c.floor)
		}
	}
}

// FuzzRoundsMatchesReference holds Rounds to the method-by-method loop on a
// small two-socket, two-core, two-way SMT machine whose noise, latencies and
// deducted overhead are all fuzzed: jitter amplitude 0–64, spike rate 0–0.5
// and any spike amplitude; every pair latency base, or base+1 across
// sockets, for a base of 0–3 cycles, so that the jitter (or, without noise,
// a latency of 0) clamps a CAS's cost at 1; an overhead from 0 to above the
// largest unspiked sample, so that samples clamp at 0; 1–512 repetitions;
// and optionally a DVFS ramp, so that the round turns steady mid-call.
// Before each of its two calls (a first call and a retry) one thread's
// clock is put ahead of the other's by lead cycles, so the first barrier of
// the arithmetic path may wait on either thread. The seed corpus
// (testdata/fuzz/FuzzRoundsMatchesReference) runs as plain tests;
// `go test -fuzz FuzzRoundsMatchesReference ./internal/sim` explores.
func FuzzRoundsMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, noiseAmp uint8, spuriousRate, spuriousAmp uint16, pair uint8, reps uint16,
		seed uint64, base uint8, overhead uint16, lead int16, dvfs bool) {
		p := Custom("fuzz", 2, 2, 2, 1, NumberingIntelHalves)
		p.NoiseAmp = int64(noiseAmp % 65)
		p.SpuriousRate = float64(spuriousRate%5001) / 10_000
		p.SpuriousAmp = int64(spuriousAmp)
		lat := int64(base % 4)
		p.HitCASLat, p.SameCoreLat, p.IntraSocketLat = lat, max(lat, 1), lat // SMT needs SameCoreLat > 0
		p.SocketLatMatrix[0][1], p.SocketLatMatrix[1][0] = lat+1, lat+1
		if dvfs {
			p.DVFS, p.FreqMinGHz, p.RampCycles, p.DVFSStates = true, 1.0, 4000, 4
		}
		n := p.NumContexts()
		xCtx, yCtx := int(pair>>4)%n, int(pair&15)%n
		maxSample := p.RdtscOverhead + lat + 1 + p.NoiseAmp
		rp := newRoundsPair(t, p, seed, xCtx, yCtx, int64(overhead)%(2*maxSample+1))
		what := fmt.Sprintf("noise %d spikes %g×%d base %d dvfs %v pair (%d, %d) overhead %d lead %d",
			p.NoiseAmp, p.SpuriousRate, p.SpuriousAmp, lat, dvfs, xCtx, yCtx, rp.overhead, lead)
		ahead := []*Thread{rp.fastX, rp.refX}
		if lead > 0 {
			ahead = []*Thread{rp.fastY, rp.refY}
		}
		for _, call := range []string{"first call", "retry"} {
			for _, th := range ahead {
				th.now += max(int64(lead), -int64(lead))
			}
			rp.call(t, what+" "+call, 1+int(reps%512))
		}
	})
}
