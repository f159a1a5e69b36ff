// Package place implements MCTOP-PLACE, the portable thread-placement
// library of Section 6 of the MCTOP paper.
//
// A Placement maps threads to hardware contexts according to one of the 12
// high-level policies of Table 2, computed from the enriched MCTOP topology
// (local memory bandwidths, socket latencies, power model). Placements
// support pinning a thread to the next available context, unpinning it
// back, and export the derived information of Figure 7: cores used,
// bandwidth proportions, estimated maximum power with and without DRAM,
// maximum latency, and minimum aggregate bandwidth.
package place

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/mctoperr"
	"repro/internal/topo"
)

// ErrInvalid is wrapped by every placement failure the caller can correct —
// an unknown policy name, the power policy on a machine without power
// measurements, unsatisfiable options. Servers use errors.Is to map these
// to client errors rather than server faults. It wraps
// mctoperr.ErrInvalidRequest, so the structured-error contract of the
// client API sees every ErrInvalid failure too.
var ErrInvalid = fmt.Errorf("place: invalid placement request: %w", mctoperr.ErrInvalidRequest)

// Policy is one of the 12 placement policies of Table 2.
type Policy int

const (
	// None does not pin threads at all.
	None Policy = iota
	// Sequential uses the sequential OS numbering.
	Sequential
	// ConHWC fills all hardware contexts of the socket with maximum local
	// memory bandwidth as compactly as possible (both SMT contexts of a
	// core together), then continues to the next best connected socket.
	ConHWC
	// ConCoreHWC fills all unique cores of the socket first, then its
	// second SMT contexts, before moving to the next socket.
	ConCoreHWC
	// ConCore uses all unique cores of all used sockets before using any
	// second SMT context.
	ConCore
	// BalanceHWC is the balanced variant of ConHWC: threads are spread
	// evenly across sockets instead of filling one before the next.
	BalanceHWC
	// BalanceCoreHWC is the balanced variant of ConCoreHWC.
	BalanceCoreHWC
	// BalanceCore is the balanced variant of ConCore.
	BalanceCore
	// RRCore places threads round-robin over sockets (maximum-bandwidth
	// sockets first), using unique cores before SMT siblings.
	RRCore
	// RRHWC places threads round-robin over sockets using all hardware
	// contexts of each core together.
	RRHWC
	// PowerPolicy places threads so that the estimated maximum power
	// consumption is minimized (Intel-only in the paper: requires power
	// measurements).
	PowerPolicy
	// RRScale is RRCore, but caps the threads per socket at the number
	// needed to saturate the bandwidth to its local memory node.
	RRScale
)

var policyNames = map[Policy]string{
	None:           "MCTOP_PLACE_NONE",
	Sequential:     "MCTOP_PLACE_SEQUENTIAL",
	ConHWC:         "MCTOP_PLACE_CON_HWC",
	ConCoreHWC:     "MCTOP_PLACE_CON_CORE_HWC",
	ConCore:        "MCTOP_PLACE_CON_CORE",
	BalanceHWC:     "MCTOP_PLACE_BALANCE_HWC",
	BalanceCoreHWC: "MCTOP_PLACE_BALANCE_CORE_HWC",
	BalanceCore:    "MCTOP_PLACE_BALANCE_CORE",
	RRCore:         "MCTOP_PLACE_RR_CORE",
	RRHWC:          "MCTOP_PLACE_RR_HWC",
	PowerPolicy:    "MCTOP_PLACE_POWER",
	RRScale:        "MCTOP_PLACE_RR_SCALE",
}

func (p Policy) String() string {
	if n, ok := policyNames[p]; ok {
		return n
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Policies returns all 12 policies of Table 2.
func Policies() []Policy {
	return []Policy{None, Sequential, ConHWC, ConCoreHWC, ConCore,
		BalanceHWC, BalanceCoreHWC, BalanceCore, RRCore, RRHWC, PowerPolicy, RRScale}
}

// policyByName is Resolve's reverse lookup — both the full
// MCTOP_PLACE_* name and the bare suffix, uppercase — built once at package
// init: mctopd parses a policy per placement request, so the per-call
// iteration over policyNames was serving-path overhead.
var policyByName = func() map[string]Policy {
	m := make(map[string]Policy, 2*len(policyNames))
	for p, n := range policyNames {
		m[n] = p
		m[strings.TrimPrefix(n, "MCTOP_PLACE_")] = p
	}
	return m
}()

// Options tunes a placement. Zero values mean "use everything".
type Options struct {
	// NThreads is the number of threads to place (default: all contexts of
	// the allowed sockets; RRScale may lower it further).
	NThreads int
	// NSockets limits how many sockets are used (default: all).
	NSockets int
}

// Placement is an immutable thread-to-context mapping plus a mutable
// pin/unpin cursor. Safe for concurrent use.
type Placement struct {
	t      *topo.Topology
	policy Policy
	name   string
	ctxs   []int // assignment order; -1 entries mean "unpinned" (None)

	mu sync.Mutex
	// taken marks the claimed slots; allocated by the first PinNext, so a
	// placement nobody pins through (an Alloc keeps its own pin state)
	// never pays for it.
	taken []bool
	// free is the lowest slot that may be unclaimed: every slot below it is
	// taken, so PinNext starts scanning here instead of at 0 — O(1)
	// amortized on the pin-heavy serving path. Unpin moves it back down.
	free int

	// occ memoizes the occupancy of ctxs, which never change: every Figure 7
	// accessor reads it, and building a placement pays nothing for it.
	occOnce sync.Once
	occ     *topo.Occupancy
}

// Custom is the Policy() answer for placements built from a non-builtin
// Orderer (a combinator chain or a user policy); PolicyName carries the
// actual identity.
const Custom Policy = -1

// NewFrom computes a placement from any Orderer — a builtin Policy, a
// combinator chain, or a user implementation. The order is validated
// (every slot must be -1 or a context of this topology); correctable
// failures wrap ErrInvalid.
func NewFrom(t *topo.Topology, o Orderer, opt Options) (*Placement, error) {
	if o == nil {
		return nil, fmt.Errorf("%w: nil policy", ErrInvalid)
	}
	order, err := o.Order(t, opt)
	if err != nil {
		return nil, err
	}
	for i, c := range order {
		if c < -1 || c >= t.NumHWContexts() {
			return nil, fmt.Errorf("%w: policy %s slot %d names context %d (machine has %d)",
				ErrInvalid, o.Name(), i, c, t.NumHWContexts())
		}
	}
	policy := Custom
	if p, ok := o.(Policy); ok {
		policy = p
	} else if c, ok := o.(Chain); ok {
		if p, ok := c.Orderer.(Policy); ok {
			policy = p
		}
	}
	return &Placement{
		t:      t,
		policy: policy,
		name:   o.Name(),
		ctxs:   order,
	}, nil
}

// socketOrder returns sockets in placement priority: the socket with
// maximum local memory bandwidth first. Connection-oriented policies
// (CON_*) then chain to the best-connected unused socket — the lowest
// latency from the last one chosen, ties to the lowest id, which is
// SocketsByLatencyFrom's order — and the others rank by bandwidth
// throughout. The chain is written over the bandwidth order's own copy.
func socketOrder(t *topo.Topology, chained bool, nSockets int) []*topo.Socket {
	order := t.SocketsByLocalBW()[:nSockets]
	if !chained {
		return order
	}
	used := make([]bool, t.NumSockets())
	used[order[0].ID] = true
	for k := 1; k < nSockets; k++ {
		last, next := order[k-1].ID, -1
		var bestLat int64
		for id, u := range used {
			if u {
				continue
			}
			if lat := t.SocketLatency(last, id); next == -1 || lat < bestLat {
				next, bestLat = id, lat
			}
		}
		used[next] = true
		order[k] = t.Socket(next)
	}
	return order
}

// socketCores returns socket s's cores in id order, SocketGetCores without
// its copy: cores are numbered socket by socket, so they are one range of
// Topology.Cores.
func socketCores(t *topo.Topology, s *topo.Socket) []*topo.HWCGroup {
	cores := t.Cores()
	lo := sort.Search(len(cores), func(i int) bool { return cores[i].Socket.ID >= s.ID })
	hi := lo
	for hi < len(cores) && cores[hi].Socket == s {
		hi++
	}
	return cores[lo:hi]
}

// numContexts is how many contexts the sockets hold: the size of every
// order built over them.
func numContexts(sockets []*topo.Socket) int {
	n := 0
	for _, s := range sockets {
		n += len(s.Contexts)
	}
	return n
}

// appendHWC appends a socket's contexts compactly: core by core, all SMT
// contexts of a core together.
func appendHWC(out []int, cores []*topo.HWCGroup) []int {
	for _, core := range cores {
		for _, c := range core.Contexts {
			out = append(out, c.ID)
		}
	}
	return out
}

// appendCoreHWC appends a socket's contexts core-first: the first SMT
// context of every core, then the second of every core, and so on.
func appendCoreHWC(out []int, cores []*topo.HWCGroup, smtWays int) []int {
	for smt := 0; smt < smtWays; smt++ {
		for _, core := range cores {
			if smt < len(core.Contexts) {
				out = append(out, core.Contexts[smt].ID)
			}
		}
	}
	return out
}

// buildOrder builds a builtin policy's order into one slice sized once.
// The round-robin policies lay their per-socket lists out in one scratch
// slice first.
func buildOrder(t *topo.Topology, policy Policy, nSockets, nThreads int) ([]int, error) {
	switch policy {
	case None:
		// Like every other policy, None offers at most one slot per
		// hardware context (also keeps a huge nThreads from allocating a
		// huge slice).
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
		sockets := socketOrder(t, true, nSockets)
		out := make([]int, 0, numContexts(sockets))
		for _, s := range sockets {
			if policy == ConHWC {
				out = appendHWC(out, socketCores(t, s))
			} else {
				out = appendCoreHWC(out, socketCores(t, s), t.SMTWays())
			}
		}
		return out, nil

	case ConCore:
		sockets := socketOrder(t, true, nSockets)
		out := make([]int, 0, numContexts(sockets))
		for smt := 0; smt < t.SMTWays(); smt++ {
			for _, s := range sockets {
				for _, core := range socketCores(t, s) {
					if smt < len(core.Contexts) {
						out = append(out, core.Contexts[smt].ID)
					}
				}
			}
		}
		return out, nil

	case BalanceHWC, BalanceCoreHWC, BalanceCore, RRCore, RRHWC, RRScale:
		sockets := socketOrder(t, false, nSockets)
		flat := make([]int, 0, numContexts(sockets))
		perSocket := make([][]int, len(sockets))
		streamBW := t.Spec().StreamCoreBW
		for i, s := range sockets {
			start := len(flat)
			if policy == BalanceHWC || policy == RRHWC {
				flat = appendHWC(flat, socketCores(t, s))
			} else {
				flat = appendCoreHWC(flat, socketCores(t, s), t.SMTWays())
			}
			// RR_SCALE caps a socket at the threads that saturate its
			// local memory bandwidth.
			if bw := s.LocalBW(); policy == RRScale && streamBW > 0 && bw > 0 {
				need := max(int(bw/streamBW+0.999), 1)
				flat = flat[:min(len(flat), start+need)]
			}
			perSocket[i] = flat[start:]
		}
		return roundRobin(perSocket, nThreads), nil

	case PowerPolicy:
		return powerOrder(t, nSockets, nThreads), nil
	}
	return nil, fmt.Errorf("place: unhandled policy %v", policy)
}

// roundRobin interleaves the per-socket context lists into one slice sized
// once, stopping after limit slots (0 = no limit): when NThreads is small
// there is no point building — and allocating — the full-machine order
// only for New to slice off a prefix. The first limit slots are identical
// to the unlimited interleave.
func roundRobin(perSocket [][]int, limit int) []int {
	n, rounds := 0, 0
	for _, l := range perSocket {
		n, rounds = n+len(l), max(rounds, len(l))
	}
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]int, 0, n)
	for r := 0; r < rounds; r++ {
		for _, l := range perSocket {
			if r < len(l) {
				if out = append(out, l[r]); len(out) == n {
					return out
				}
			}
		}
	}
	return out
}

// powerOrder greedily adds the context whose activation increases the
// estimated package power the least — SMT siblings of already active cores
// first, then new cores on active sockets, then new sockets.
//
// The pre-index implementation (powerOrderScan, in index_test.go) ran a full
// PowerEstimate for every remaining context at every step: O(n²) estimates,
// each O(ctxs). But a candidate's power delta depends only on its class —
// SMT sibling of an active core, first context of an inactive core on an
// active socket, or first context of an inactive socket — so each step only
// needs to evaluate the lowest-id representative of each class, and the
// exhaustive scan finds the same winner (its ID-ascending strict-< scan
// picks the lowest-id context of the cheapest class).
//
// Nor does a step look for the representatives: each class is a min-heap
// of context ids, and a context joins its class when its core or socket
// turns active and leaves it when it is chosen — always as its class's
// minimum. A socket's candidate is its lowest id, an inactive core's its
// lowest id (the contexts of both ascend), so the build is O(n log n).
//
// Nor does a step re-estimate the chosen set: it keeps running per-core
// context counts and each active socket's power. A candidate changes only
// its own socket's term, which is recomputed over that socket's cores in
// core-id order and then summed with the other active sockets in socket-id
// order — the float operations Occupancy.Power performs, so every delta
// and every tie is bit-identical to PowerEstimate's. The equivalence is
// property-tested against the scan on the golden and generated platforms.
func powerOrder(t *topo.Topology, nSockets, nThreads int) []int {
	allowed := make([]bool, t.NumSockets())
	for _, s := range socketOrder(t, false, nSockets) {
		allowed[s.ID] = true
	}
	n := nThreads
	if n == 0 || n > t.NumHWContexts() {
		// The greedy can never choose more than one slot per context, so
		// capping n here changes nothing — except that the scratch
		// capacities below stay machine-sized even when a request asks for
		// a huge thread count (mctopd validates only threads >= 0).
		n = t.NumHWContexts()
	}
	// The power model; all zero without power data, like PowerEstimate.
	var pw topo.PowerInfo
	if p := t.Power(); p.Available() {
		pw = *p
	}
	contexts := t.Contexts()
	sockCores := make([][]*topo.HWCGroup, t.NumSockets())
	for _, s := range t.Sockets() {
		sockCores[s.ID] = socketCores(t, s)
	}
	perCore := make([]int32, t.NumCores()) // contexts chosen, by core id
	sockActive := make([]bool, t.NumSockets())
	sockPower := make([]float64, t.NumSockets()) // per active socket
	// socketPower is socket s's entry of Occupancy.Power: the base, then
	// each occupied core's share in core-id order.
	socketPower := func(s int) float64 {
		p := pw.PerSocketBase
		for _, core := range sockCores[s] {
			if k := perCore[core.ID]; k > 0 {
				p += pw.PerFirstCtx + float64(k-1)*pw.PerExtraCtx
			}
		}
		return p
	}
	// total is Occupancy.Power's total with socket s active at power p: the
	// active sockets' power in socket-id order (an idle socket's zero adds
	// nothing).
	total := func(s int, p float64) float64 {
		var tot float64
		for i, active := range sockActive {
			if i == s {
				tot += p
			} else if active {
				tot += sockPower[i]
			}
		}
		return tot
	}
	// The delta classes' candidates: siblings of active cores, inactive
	// cores of active sockets, and inactive allowed sockets.
	var sibs, cores, sockets idHeap
	for s, ok := range allowed {
		if ok {
			sockets.push(t.Socket(s).Contexts[0].ID)
		}
	}
	siblingsOf := func(core *topo.HWCGroup) {
		for _, c := range core.Contexts[1:] {
			sibs.push(c.ID)
		}
	}
	chosen := make([]int, 0, n)
	cur := 0.0 // PowerEstimate(chosen)'s total
	for len(chosen) < n {
		best, bestDelta, bestPower, bestTotal := -1, 0.0, 0.0, 0.0
		for _, cand := range [3]int{sibs.min(), cores.min(), sockets.min()} {
			if cand == -1 {
				continue
			}
			c := contexts[cand]
			perCore[c.Core.ID]++
			p := socketPower(c.Socket.ID)
			perCore[c.Core.ID]--
			with := total(c.Socket.ID, p)
			delta := with - cur
			if best == -1 || delta < bestDelta || (delta == bestDelta && cand < best) {
				best, bestDelta, bestPower, bestTotal = cand, delta, p, with
			}
		}
		if best == -1 {
			break
		}
		c := contexts[best]
		switch {
		case perCore[c.Core.ID] > 0:
			sibs.pop()
		case sockActive[c.Socket.ID]:
			cores.pop()
			siblingsOf(c.Core)
		default:
			sockets.pop()
			siblingsOf(c.Core)
			for _, core := range sockCores[c.Socket.ID] {
				if core != c.Core {
					cores.push(core.Contexts[0].ID)
				}
			}
		}
		chosen = append(chosen, best)
		perCore[c.Core.ID]++
		sockActive[c.Socket.ID] = true
		sockPower[c.Socket.ID] = bestPower
		cur = bestTotal
	}
	return chosen
}

// idHeap is a min-heap of context ids, powerOrder's candidate classes.
type idHeap []int

// min returns the lowest id, or -1 when the heap is empty.
func (h idHeap) min() int {
	if len(h) == 0 {
		return -1
	}
	return h[0]
}

func (h *idHeap) push(id int) {
	*h = append(*h, id)
	for i := len(*h) - 1; i > 0; {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

// pop removes the lowest id.
func (h *idHeap) pop() {
	old := *h
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	for i := 0; ; {
		small, l, r := i, 2*i+1, 2*i+2
		if l < last && old[l] < old[small] {
			small = l
		}
		if r < last && old[r] < old[small] {
			small = r
		}
		if small == i {
			return
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
}

// Policy returns the placement's builtin policy, or Custom when the
// placement was built from a combinator chain or a user Orderer — use
// PolicyName for the full identity.
func (p *Placement) Policy() Policy { return p.policy }

// PolicyName returns the name of the Orderer that produced this placement
// (the MCTOP_PLACE_* name for builtins, the composed name for chains, the
// Orderer's own Name for user policies).
func (p *Placement) PolicyName() string {
	if p.name != "" {
		return p.name
	}
	return p.policy.String()
}

// Topology returns the placement's topology.
func (p *Placement) Topology() *topo.Topology { return p.t }

// Contexts returns the assignment order (a copy). Entries of -1 mean the
// thread is left unpinned (None policy).
func (p *Placement) Contexts() []int {
	return append([]int(nil), p.ctxs...)
}

// Slots returns p's assignment order itself, not a copy, for callers that
// read it in place: the order never changes once p is built, and the
// caller must not modify it.
func Slots(p *Placement) []int { return p.ctxs }

// NThreads returns the number of threads the placement accommodates.
func (p *Placement) NThreads() int { return len(p.ctxs) }

// PinNext claims the next available slot and returns its hardware context
// (-1 means run unpinned). ok is false when all slots are taken.
func (p *Placement) PinNext() (ctx int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.taken == nil {
		p.taken = make([]bool, len(p.ctxs))
	}
	for p.free < len(p.taken) && p.taken[p.free] {
		p.free++
	}
	if p.free == len(p.taken) {
		return -1, false
	}
	p.taken[p.free] = true
	ctx = p.ctxs[p.free]
	p.free++
	return ctx, true
}

// Unpin returns a context claimed by PinNext to the placement.
func (p *Placement) Unpin(ctx int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.taken {
		if p.ctxs[i] == ctx && p.taken[i] {
			p.taken[i] = false
			if i < p.free {
				p.free = i
			}
			return
		}
	}
}

// Occupancy returns the cores and sockets the pinned contexts occupy (-1
// slots excluded), computed on first use and shared afterwards: read-only.
func (p *Placement) Occupancy() *topo.Occupancy {
	p.occOnce.Do(func() { p.occ = p.t.Occupancy(p.ctxs) })
	return p.occ
}

// SocketsUsed returns the sockets the placement touches, in first-use
// order.
func (p *Placement) SocketsUsed() []*topo.Socket {
	ids := p.Occupancy().Sockets
	out := make([]*topo.Socket, len(ids))
	for i, id := range ids {
		out[i] = p.t.Socket(id)
	}
	return out
}

// NCores returns the number of distinct physical cores used.
func (p *Placement) NCores() int { return p.Occupancy().NCores }

// CtxPerSocket returns, per used socket (in SocketsUsed order), how many
// hardware contexts the placement occupies there.
func (p *Placement) CtxPerSocket() []int {
	o := p.Occupancy()
	return perUsedSocket(o, o.CtxPerSocket)
}

// CoresPerSocket returns distinct cores per used socket.
func (p *Placement) CoresPerSocket() []int {
	o := p.Occupancy()
	return perUsedSocket(o, o.CoresPerSocket)
}

// perUsedSocket reorders a per-socket-id counter into SocketsUsed order.
func perUsedSocket(o *topo.Occupancy, bySocketID []int32) []int {
	out := make([]int, len(o.Sockets))
	for i, id := range o.Sockets {
		out[i] = int(bySocketID[id])
	}
	return out
}

// BWProportions returns each used socket's share of the placement's
// aggregate local memory bandwidth (Figure 7's "BW proportions").
func (p *Placement) BWProportions() []float64 {
	ids := p.Occupancy().Sockets
	bws := make([]float64, len(ids))
	for i, id := range ids {
		bws[i] = p.t.Socket(id).LocalBW()
	}
	if sum := p.MinBandwidth(); sum != 0 {
		for i := range bws {
			bws[i] /= sum
		}
	}
	return bws
}

// MinBandwidth returns the aggregate local memory bandwidth of the used
// sockets — the guaranteed streaming rate when every thread stays local
// (Figure 7's "Min bandwidth").
func (p *Placement) MinBandwidth() float64 {
	var sum float64
	for _, id := range p.Occupancy().Sockets {
		sum += p.t.Socket(id).LocalBW()
	}
	return sum
}

// MaxLatency returns the maximum communication latency between any two
// placed threads (Figure 7's "Max latency"; also the educated-backoff
// quantum of Section 5).
func (p *Placement) MaxLatency() int64 { return p.Occupancy().MaxLatency() }

// MaxPower estimates the placement's maximum power per used socket and in
// total (Figure 7's "Max pow" lines). Zero when power data is unavailable.
func (p *Placement) MaxPower(withDRAM bool) (perUsedSocket []float64, total float64) {
	o := p.Occupancy()
	perAll, total := o.Power(withDRAM)
	for _, id := range o.Sockets {
		perUsedSocket = append(perUsedSocket, perAll[id])
	}
	return perUsedSocket, total
}

// String renders the placement report of Figure 7.
func (p *Placement) String() string {
	o := p.Occupancy()
	var b strings.Builder
	fmt.Fprintf(&b, "## MCTOP Placement    : %s\n", p.PolicyName())
	fmt.Fprintf(&b, "#  # Cores            : %d\n", o.NCores)
	fmt.Fprintf(&b, "#  HW contexts (%d)   :", len(p.ctxs))
	for i, c := range p.ctxs {
		if i == 16 {
			b.WriteString(" ...")
			break
		}
		fmt.Fprintf(&b, " %d", c)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "#  Sockets (%d)        : %s\n", len(o.Sockets), joinInts(o.Sockets))
	fmt.Fprintf(&b, "#  # HW ctx / socket  : %s\n", joinInts(p.CtxPerSocket()))
	fmt.Fprintf(&b, "#  # Cores / socket   : %s\n", joinInts(p.CoresPerSocket()))
	b.WriteString("#  BW proportions     : ")
	for i, f := range p.BWProportions() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", f)
	}
	b.WriteByte('\n')
	if p.t.Power().Available() {
		per, total := p.MaxPower(false)
		fmt.Fprintf(&b, "#  Max pow no DRAM    : %s= %.1f Watt\n", joinWatts(per), total)
		perD, totalD := p.MaxPower(true)
		fmt.Fprintf(&b, "#  Max pow with DRAM  : %s= %.1f Watt\n", joinWatts(perD), totalD)
	}
	fmt.Fprintf(&b, "#  Max latency        : %d cycles\n", o.MaxLatency())
	fmt.Fprintf(&b, "#  Min bandwidth      : %.2f GB/s\n", p.MinBandwidth())
	return b.String()
}

func joinInts(xs []int) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

func joinWatts(xs []float64) string {
	var b strings.Builder
	for _, x := range xs {
		fmt.Fprintf(&b, "%.1f ", x)
	}
	return b.String()
}

// Pool offers runtime selection of placement policies (Section 6): systems
// can switch policies between execution phases, which is what the OpenMP
// extension of Section 7.4 builds on.
type Pool struct {
	t *topo.Topology

	mu  sync.Mutex
	cur *Placement
}

// NewPool creates a pool with an initial policy.
func NewPool(t *topo.Topology, policy Policy, opt Options) (*Pool, error) {
	p, err := NewFrom(t, policy, opt)
	if err != nil {
		return nil, err
	}
	return &Pool{t: t, cur: p}, nil
}

// Set switches to a new policy at runtime.
func (pl *Pool) Set(policy Policy, opt Options) error {
	p, err := NewFrom(pl.t, policy, opt)
	if err != nil {
		return err
	}
	pl.mu.Lock()
	pl.cur = p
	pl.mu.Unlock()
	return nil
}

// Current returns the active placement.
func (pl *Pool) Current() *Placement {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.cur
}
