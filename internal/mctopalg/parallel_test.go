package mctopalg

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/topo"
)

// encodeTopo serializes a topology to its description-file bytes — the
// strongest equality the format offers.
func encodeTopo(t *testing.T, top *topo.Topology) []byte {
	t.Helper()
	var buf bytes.Buffer
	spec := top.Spec()
	if err := topo.Encode(&buf, &spec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func inferWithParallelism(t *testing.T, p *sim.Platform, seed uint64, par int) *Result {
	t.Helper()
	m, err := machine.NewSim(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Parallelism = par
	res, err := Infer(m, opt)
	if err != nil {
		t.Fatalf("%s (parallelism %d): %v", p.Name, par, err)
	}
	return res
}

// TestParallelEqualsSequential is the determinism contract of the forked
// measurement phase: for a fixed seed, the raw latency table and the
// serialized topology must be byte-identical whether pairs are measured by
// one worker or many.
func TestParallelEqualsSequential(t *testing.T) {
	for _, p := range sim.Platforms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			seq := inferWithParallelism(t, p, 42, 1)
			par := inferWithParallelism(t, p, 42, 8)

			if !reflect.DeepEqual(seq.RawTable, par.RawTable) {
				t.Fatal("raw latency tables differ between sequential and parallel measurement")
			}
			if !reflect.DeepEqual(seq.Clusters, par.Clusters) {
				t.Fatalf("clusters differ: %v vs %v", seq.Clusters, par.Clusters)
			}
			if seq.Retries != par.Retries || seq.Cycles != par.Cycles {
				t.Errorf("bookkeeping differs: retries %d/%d, cycles %d/%d",
					seq.Retries, par.Retries, seq.Cycles, par.Cycles)
			}
			sb := encodeTopo(t, seq.Topology)
			pb := encodeTopo(t, par.Topology)
			if !bytes.Equal(sb, pb) {
				t.Fatal("serialized topologies differ between sequential and parallel inference")
			}
		})
	}
}

// TestParallelismInvariantAcrossWidths checks a range of pool widths,
// including widths larger than the pair count, on the smallest platform.
func TestParallelismInvariantAcrossWidths(t *testing.T) {
	p, err := sim.ByName("Ivy")
	if err != nil {
		t.Fatal(err)
	}
	ref := encodeTopo(t, inferWithParallelism(t, p, 7, 1).Topology)
	for _, par := range []int{2, 3, 16, 4096} {
		got := encodeTopo(t, inferWithParallelism(t, p, 7, par).Topology)
		if !bytes.Equal(ref, got) {
			t.Fatalf("parallelism %d changed the inferred topology", par)
		}
	}
}

// failingForker makes the nth fork fail, to exercise error propagation and
// fail-fast in the forked measurement phase.
type failingForker struct {
	machine.Machine
	failAt int32
	n      int32
}

func (f *failingForker) ForkPair(x, y int) (machine.Machine, error) {
	if atomic.AddInt32(&f.n, 1) == f.failAt {
		return nil, errors.New("fork failed")
	}
	return f.Machine.(machine.Forker).ForkPair(x, y)
}

func TestForkFailurePropagates(t *testing.T) {
	p, err := sim.ByName("Ivy")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.NewSim(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	opt := testOptions()
	opt.Parallelism = 8
	_, err = Infer(&failingForker{Machine: m, failAt: 3}, opt)
	if err == nil || !strings.Contains(err.Error(), "fork failed") {
		t.Fatalf("err = %v, want the fork failure", err)
	}
}

// TestInferRace runs two concurrent inferences on independent machines under
// the race detector: the forks must not share mutable state.
func TestInferRace(t *testing.T) {
	p, err := sim.ByName("Ivy")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		seed := uint64(40 + i)
		go func() {
			m, err := machine.NewSim(p, seed)
			if err != nil {
				done <- err
				return
			}
			opt := testOptions()
			opt.Parallelism = 8
			_, err = Infer(m, opt)
			done <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
