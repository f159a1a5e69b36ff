package place

// Tests of the per-topology order memo (topo.MemoOrder): a builtin policy
// over every socket places from its full-machine order, built once per
// topology, cut to NThreads. The memo path must equal the pre-change
// builders (order_reference_test.go) for every policy, socket count and
// thread count; its first build must be race-free; and nothing a caller
// is handed may write it.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// orderTopologies are the five goldens and three inferred generated
// shapes, a ring, a circulant and a 512-context mesh, which borrow
// Haswell's power model so POWER runs on them too: the machines every
// builtin order is checked against the reference on.
func orderTopologies(tb testing.TB) []*topo.Topology {
	var tops []*topo.Topology
	for _, file := range goldenPlatformFiles {
		tops = append(tops, loadGolden(tb, file))
	}
	power := loadGolden(tb, "haswell.mctop").Power()
	for _, name := range []string{"gen:ring:s6:c2:t2", "gen:circulant:s16:c4:t2", "gen:mesh:s16:c16:t2"} {
		p, err := sim.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		spec := enriched(tb, p).Spec()
		spec.Power = power
		top, err := topo.FromSpec(spec)
		if err != nil {
			tb.Fatal(err)
		}
		tops = append(tops, top)
	}
	return tops
}

// FuzzOrderMatchesReference: for any topology of orderTopologies, builtin
// policy, socket count (0 to one past the machine's) and thread count (0 to
// three past its contexts) the bytes pick, Policy.Order and NewFrom — of
// the policy and of Chain{policy} — return exactly the pre-change
// builders' order (refPolicyOrder), or fail with the same error. The
// topologies live for the whole run, so most inputs read an order another
// input's thread count memoized; POWER's reference stops its greedy at
// NThreads, so this is also the check that its first k slots are its full
// order's first k.
func FuzzOrderMatchesReference(f *testing.F) {
	tops := orderTopologies(f)
	for i := range tops {
		for pol := range Policies() {
			f.Add([]byte{byte(i), byte(pol), 0, 0, 0})     // the whole machine
			f.Add([]byte{byte(i), byte(pol), 0, 3, 0})     // three threads
			f.Add([]byte{byte(i), byte(pol), 1, 0, 1})     // one socket, 256 threads
			f.Add([]byte{byte(i), byte(pol), 2, 255, 255}) // past the contexts
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		top := tops[next()%len(tops)]
		pol := Policies()[next()%len(Policies())]
		opt := Options{NSockets: next() % (top.NumSockets() + 2)}
		opt.NThreads = (next() | next()<<8) % (top.NumHWContexts() + 4)
		want, wantErr := refPolicyOrder(top, pol, opt)
		check := func(how string, got []int, err error) {
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %v %+v %s:\n got %v (%v)\nwant %v (%v)", top.Name(), pol, opt, how, got, err, want, wantErr)
			}
		}
		got, err := pol.Order(top, opt)
		check("Order", got, err)
		for _, o := range []Orderer{pol, Chain{pol}} {
			pl, err := NewFrom(top, o, opt)
			if err != nil {
				check("NewFrom", nil, err)
				continue
			}
			check("NewFrom", pl.Contexts(), nil)
			if pl.Policy() != pol || pl.PolicyName() != pol.String() {
				t.Fatalf("%s %v: placement says %v / %s", top.Name(), pol, pl.Policy(), pl.PolicyName())
			}
		}
	})
}

// TestPoliciesFitTheMemo: the topology keeps one memo slot per builtin
// policy, indexed by the policy's value, so the 12 builtins must number
// 0 to topo.NumOrders-1.
func TestPoliciesFitTheMemo(t *testing.T) {
	if len(Policies()) != topo.NumOrders {
		t.Fatalf("%d builtin policies, %d memo slots", len(Policies()), topo.NumOrders)
	}
	for i, p := range Policies() {
		if int(p) != i {
			t.Fatalf("policy %v has value %d at position %d", p, int(p), i)
		}
	}
}

// TestMemoConcurrentFirstUse: on a fresh topology, goroutines place every
// builtin policy at once, so each order's first build races its first
// reads (run it with -race); every placement equals the reference.
func TestMemoConcurrentFirstUse(t *testing.T) {
	top := loadGolden(t, "haswell.mctop")
	counts := []int{0, 1, 5, top.NumCores(), top.NumHWContexts()}
	want := make(map[Options]map[Policy][]int)
	for _, n := range counts {
		opt := Options{NThreads: n}
		want[opt] = make(map[Policy][]int)
		for _, pol := range Policies() {
			order, err := refPolicyOrder(top, pol, opt)
			if err != nil {
				t.Fatal(err)
			}
			want[opt][pol] = order
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range Policies() {
				// Each goroutine starts at another policy and thread count.
				pol := Policies()[(i+g)%len(Policies())]
				opt := Options{NThreads: counts[(i+g)%len(counts)]}
				pl, err := NewFrom(top, pol, opt)
				if err != nil {
					t.Error(err)
					return
				}
				if got := Slots(pl); !reflect.DeepEqual(got, want[opt][pol]) {
					t.Errorf("%v %+v: got %v, want %v", pol, opt, got, want[opt][pol])
				}
				if got, _ := pol.Order(top, opt); !reflect.DeepEqual(got, want[opt][pol]) {
					t.Errorf("%v %+v: Order %v, want %v", pol, opt, got, want[opt][pol])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMemoIsNotWritable: what a caller is handed — a Policy.Order result,
// a combinator's order over a builtin, a Placement.Contexts copy, and an
// append to a placement's Slots — can be written without changing the
// next placement of the same policy.
func TestMemoIsNotWritable(t *testing.T) {
	top := loadGolden(t, "haswell.mctop") // Intel: POWER runs too
	for _, pol := range Policies() {
		want, err := refPolicyOrder(top, pol, Options{})
		if err != nil {
			t.Fatal(err)
		}
		scribble := func(order []int) {
			for i := range order {
				order[i] = -7
			}
		}
		order, err := pol.Order(top, Options{})
		if err != nil {
			t.Fatal(err)
		}
		scribble(order)
		for _, o := range []Orderer{Limit(pol, 4), Reverse(pol), OnSockets(pol, 0)} {
			order, err := o.Order(top, Options{})
			if err != nil {
				t.Fatal(err)
			}
			scribble(order)
		}
		pl, err := NewFrom(top, pol, Options{NThreads: 3})
		if err != nil {
			t.Fatal(err)
		}
		scribble(pl.Contexts())
		_ = append(Slots(pl), -7, -7, -7)
		pl, err = NewFrom(top, pol, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := pl.Contexts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v after the writes: got %v, want %v", pol, got, want)
		}
	}
}
