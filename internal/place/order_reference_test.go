package place

// The policy orders as they were built before each order became one slice
// sized once: the verbatim pre-change buildOrder, socketOrder, hwcOrder,
// coreHWCOrder and roundRobin, renamed with a ref prefix, and Policy.Order
// around them. Kept as the reference TestOrderMatchesReference and
// FuzzOrderMatchesReference compare every builtin policy against, like
// powerOrderScan for POWER (which the reference still delegates to the
// production powerOrder, stopped at NThreads).

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/topo"
)

// refPolicyOrder is Policy.Order over refBuildOrder.
func refPolicyOrder(t *topo.Topology, p Policy, opt Options) ([]int, error) {
	if opt.NSockets < 0 || opt.NThreads < 0 {
		return nil, fmt.Errorf("%w: negative options %+v", ErrInvalid, opt)
	}
	nSockets := opt.NSockets
	if nSockets == 0 || nSockets > t.NumSockets() {
		nSockets = t.NumSockets()
	}
	if p == PowerPolicy && !t.Power().Available() {
		return nil, fmt.Errorf("%w: %v requires power measurements (Intel-only)", ErrInvalid, p)
	}
	order, err := refBuildOrder(t, p, nSockets, opt.NThreads)
	if err != nil {
		return nil, err
	}
	n := opt.NThreads
	if n == 0 || n > len(order) {
		n = len(order)
	}
	return order[:n], nil
}

func refSocketOrder(t *topo.Topology, chained bool, nSockets int) []*topo.Socket {
	byBW := t.SocketsByLocalBW()
	if !chained {
		return byBW[:nSockets]
	}
	used := map[int]bool{byBW[0].ID: true}
	order := []*topo.Socket{byBW[0]}
	for len(order) < nSockets {
		last := order[len(order)-1]
		var next *topo.Socket
		var bestLat int64
		for _, cand := range t.SocketsByLatencyFrom(last.ID) {
			if used[cand.ID] {
				continue
			}
			lat := t.SocketLatency(last.ID, cand.ID)
			if next == nil || lat < bestLat {
				next, bestLat = cand, lat
			}
		}
		if next == nil {
			break
		}
		used[next.ID] = true
		order = append(order, next)
	}
	return order
}

func refHWCOrder(t *topo.Topology, s *topo.Socket) []int {
	var out []int
	for _, core := range t.SocketGetCores(s) {
		for _, c := range core.Contexts {
			out = append(out, c.ID)
		}
	}
	return out
}

func refCoreHWCOrder(t *topo.Topology, s *topo.Socket) []int {
	var out []int
	cores := t.SocketGetCores(s)
	for smt := 0; smt < t.SMTWays(); smt++ {
		for _, core := range cores {
			if smt < len(core.Contexts) {
				out = append(out, core.Contexts[smt].ID)
			}
		}
	}
	return out
}

func refBuildOrder(t *topo.Topology, policy Policy, nSockets, nThreads int) ([]int, error) {
	switch policy {
	case None:
		n := t.NumHWContexts()
		if nThreads > 0 && nThreads < n {
			n = nThreads
		}
		out := make([]int, n)
		for i := range out {
			out[i] = -1
		}
		return out, nil

	case Sequential:
		out := make([]int, t.NumHWContexts())
		for i := range out {
			out[i] = i
		}
		return out, nil

	case ConHWC, ConCoreHWC:
		sockets := refSocketOrder(t, true, nSockets)
		var out []int
		for _, s := range sockets {
			if policy == ConHWC {
				out = append(out, refHWCOrder(t, s)...)
			} else {
				out = append(out, refCoreHWCOrder(t, s)...)
			}
		}
		return out, nil

	case ConCore:
		sockets := refSocketOrder(t, true, nSockets)
		var out []int
		for smt := 0; smt < t.SMTWays(); smt++ {
			for _, s := range sockets {
				for _, core := range t.SocketGetCores(s) {
					if smt < len(core.Contexts) {
						out = append(out, core.Contexts[smt].ID)
					}
				}
			}
		}
		return out, nil

	case BalanceHWC, BalanceCoreHWC, BalanceCore, RRCore, RRHWC:
		sockets := refSocketOrder(t, false, nSockets)
		perSocket := make([][]int, len(sockets))
		for i, s := range sockets {
			switch policy {
			case BalanceHWC, RRHWC:
				perSocket[i] = refHWCOrder(t, s)
			default:
				perSocket[i] = refCoreHWCOrder(t, s)
			}
		}
		return refRoundRobin(perSocket, nThreads), nil

	case RRScale:
		sockets := refSocketOrder(t, false, nSockets)
		perSocket := make([][]int, len(sockets))
		spec := t.Spec()
		for i, s := range sockets {
			order := refCoreHWCOrder(t, s)
			cap := len(order)
			if bw := s.LocalBW(); spec.StreamCoreBW > 0 && bw > 0 {
				need := int(bw/spec.StreamCoreBW + 0.999)
				if need < 1 {
					need = 1
				}
				if need < cap {
					cap = need
				}
			}
			perSocket[i] = order[:cap]
		}
		return refRoundRobin(perSocket, nThreads), nil

	case PowerPolicy:
		return powerOrder(t, nSockets, nThreads), nil
	}
	return nil, fmt.Errorf("place: unhandled policy %v", policy)
}

func refRoundRobin(perSocket [][]int, limit int) []int {
	var out []int
	idx := make([]int, len(perSocket))
	for {
		progress := false
		for s := range perSocket {
			if idx[s] < len(perSocket[s]) {
				out = append(out, perSocket[s][idx[s]])
				idx[s]++
				progress = true
				if limit > 0 && len(out) == limit {
					return out
				}
			}
		}
		if !progress {
			return out
		}
	}
}

// TestOrderMatchesReference: every builtin policy's order equals the
// pre-change construction for every socket count (0 = all) and thread
// counts from none to past the machine, on the five goldens and on three
// inferred generated shapes (a ring, a circulant, and a 512-context mesh).
// Generated platforms borrow Haswell's power model so POWER runs on them
// too; a policy either fails on both sides with the same error or returns
// the same slots.
func TestOrderMatchesReference(t *testing.T) {
	for _, top := range orderTopologies(t) {
		n, cores := top.NumHWContexts(), top.NumCores()
		for _, pol := range Policies() {
			for nSockets := 0; nSockets <= top.NumSockets(); nSockets++ {
				for _, nThreads := range []int{0, 1, 2, cores / 2, cores, n, n + 3} {
					opt := Options{NSockets: nSockets, NThreads: nThreads}
					got, err := pol.Order(top, opt)
					want, wantErr := refPolicyOrder(top, pol, opt)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %v %+v:\n got %v (%v)\nwant %v (%v)", top.Name(), pol, opt, got, err, want, wantErr)
					}
				}
			}
		}
	}
}
