// The composable policy layer of MCTOP-PLACE: the 12 builtin policies of
// Table 2 implement the Orderer interface, combinators wrap any Orderer
// into a new one, and applications implement Orderer for their own
// orderings — the MCTOP-LIB model where mapping strategies are pluggable,
// not a fixed menu. Only the builtins have names a server resolves.

package place

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/mctoperr"
	"repro/internal/topo"
)

// Orderer is a placement policy: it produces the slot order a Placement
// hands out — slot i is the hardware context the i-th pinned thread runs
// on (-1 means "leave unpinned"). The 12 builtin Policy values implement
// it, as do the combinators below and any user type; NewFrom turns an
// Orderer into a Placement.
//
// Name must uniquely identify the ordering: caches key placements by it.
type Orderer interface {
	// Name returns the policy's stable identifier (e.g. the MCTOP_PLACE_*
	// names for builtins, "RR_CORE.ON_SOCKETS(0).LIMIT(8)" for chains).
	Name() string
	// Order computes the slot order for the topology under the options.
	// Every entry must be -1 or a valid hardware-context id. Failures the
	// caller can correct wrap ErrInvalid.
	Order(t *topo.Topology, opt Options) ([]int, error)
}

// Name implements Orderer for the builtin policies.
func (p Policy) Name() string { return p.String() }

// Order implements Orderer for the builtin policies: the full validation
// and ordering pipeline (socket clamp, power-data check, Table 2 order
// construction, NThreads truncation). The slice is the caller's: a
// combinator or user code may write it without touching the topology's
// memoized order it was copied from.
func (p Policy) Order(t *topo.Topology, opt Options) ([]int, error) {
	order, shared, err := p.slots(t, opt)
	if shared {
		order = slices.Clone(order)
	}
	return order, err
}

// slots is Order without the copy. With every socket allowed — the case
// every builtin placement of the whole machine is — the order is a prefix
// of the policy's full-machine order, which the topology memoizes
// (topo.MemoOrder): shared is true, and the slice must not be written.
// NThreads only cuts the order (each builder's first k slots are its
// full order's first k, which FuzzOrderMatchesReference checks against the
// builders that stop at k). A socket subset builds afresh, as a memo per
// NSockets could grow to 12·S orders of a machine.
func (p Policy) slots(t *topo.Topology, opt Options) (order []int, shared bool, err error) {
	if opt.NSockets < 0 || opt.NThreads < 0 {
		return nil, false, fmt.Errorf("%w: negative options %+v", ErrInvalid, opt)
	}
	nSockets := opt.NSockets
	if nSockets == 0 || nSockets > t.NumSockets() {
		nSockets = t.NumSockets()
	}
	if p == PowerPolicy && !t.Power().Available() {
		return nil, false, fmt.Errorf("%w: %v requires power measurements (Intel-only)", ErrInvalid, p)
	}
	if nSockets == t.NumSockets() && p >= 0 && int(p) < topo.NumOrders {
		if order = t.MemoOrder(int(p)); order == nil {
			order = t.BuildMemoOrder(int(p), fullOrder)
		}
		shared = true
	} else if order, err = buildOrder(t, p, nSockets, opt.NThreads); err != nil {
		return nil, false, err
	}
	n := opt.NThreads
	if n == 0 || n > len(order) {
		n = len(order)
	}
	return order[:n:n], shared, nil
}

// fullOrder builds builtin policy slot's full-machine order, the order
// the topology memoizes for it. buildOrder fails only for a policy it does
// not know, and slots asks only for the builtins.
func fullOrder(t *topo.Topology, slot int) []int {
	order, _ := buildOrder(t, Policy(slot), t.NumSockets(), 0)
	return order
}

// Chain is an Orderer with fluent combinator methods, so compositions read
// left to right: OnSockets(RRCore, 0).Limit(8).
type Chain struct{ Orderer }

// Limit chains a Limit combinator onto the receiver.
func (c Chain) Limit(n int) Chain { return Limit(c.Orderer, n) }

// OnSockets chains an OnSockets combinator onto the receiver.
func (c Chain) OnSockets(ids ...int) Chain { return OnSockets(c.Orderer, ids...) }

// Reverse chains a Reverse combinator onto the receiver.
func (c Chain) Reverse() Chain { return Reverse(c.Orderer) }

// Limit caps the base policy's order at n slots.
func Limit(o Orderer, n int) Chain { return Chain{limitPolicy{o, n}} }

type limitPolicy struct {
	base Orderer
	n    int
}

func (l limitPolicy) Name() string {
	return l.base.Name() + ".LIMIT(" + strconv.Itoa(l.n) + ")"
}

func (l limitPolicy) Order(t *topo.Topology, opt Options) ([]int, error) {
	if l.n < 0 {
		return nil, fmt.Errorf("%w: negative limit %d", ErrInvalid, l.n)
	}
	order, err := l.base.Order(t, opt)
	if err != nil {
		return nil, err
	}
	if l.n < len(order) {
		order = order[:l.n]
	}
	return order, nil
}

// OnSockets restricts the base policy's order to contexts on the given
// sockets, preserving the base order. The base computes its full-machine
// order first (its NThreads truncation is deferred), so the filtered order
// is "the base policy's preference among these sockets", then Options.
// NThreads applies to what survives the filter.
func OnSockets(o Orderer, ids ...int) Chain {
	return Chain{onSocketsPolicy{o, append([]int(nil), ids...)}}
}

type onSocketsPolicy struct {
	base Orderer
	ids  []int
}

func (s onSocketsPolicy) Name() string {
	parts := make([]string, len(s.ids))
	for i, id := range s.ids {
		parts[i] = strconv.Itoa(id)
	}
	return s.base.Name() + ".ON_SOCKETS(" + strings.Join(parts, ",") + ")"
}

func (s onSocketsPolicy) Order(t *topo.Topology, opt Options) ([]int, error) {
	if len(s.ids) == 0 {
		return nil, fmt.Errorf("%w: OnSockets with no sockets", ErrInvalid)
	}
	allowed := make(map[int]bool, len(s.ids))
	for _, id := range s.ids {
		if id < 0 || id >= t.NumSockets() {
			return nil, fmt.Errorf("%w: socket %d out of range [0, %d)", ErrInvalid, id, t.NumSockets())
		}
		allowed[id] = true
	}
	baseOpt := opt
	baseOpt.NThreads = 0
	order, err := s.base.Order(t, baseOpt)
	if err != nil {
		return nil, err
	}
	out := order[:0:0]
	for _, c := range order {
		if c >= 0 && c < t.NumHWContexts() && allowed[t.Context(c).Socket.ID] {
			out = append(out, c)
		}
	}
	if opt.NThreads > 0 && opt.NThreads < len(out) {
		out = out[:opt.NThreads]
	}
	return out, nil
}

// Reverse inverts the base policy's full order (least-preferred context
// first); Options.NThreads then truncates the reversed order, so a
// reversed policy hands out the contexts the base would use last.
func Reverse(o Orderer) Chain { return Chain{reversePolicy{o}} }

type reversePolicy struct{ base Orderer }

func (r reversePolicy) Name() string { return r.base.Name() + ".REVERSE" }

func (r reversePolicy) Order(t *topo.Topology, opt Options) ([]int, error) {
	baseOpt := opt
	baseOpt.NThreads = 0
	order, err := r.base.Order(t, baseOpt)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(order))
	for i, c := range order {
		out[len(order)-1-i] = c
	}
	if opt.NThreads > 0 && opt.NThreads < len(out) {
		out = out[:opt.NThreads]
	}
	return out, nil
}

// Resolve returns the builtin policy for a name: one of the 12 of Table 2,
// with or without the MCTOP_PLACE_ prefix, case-insensitive. Unknown names
// wrap both ErrInvalid and mctoperr.ErrUnknownPolicy. Composed and user
// policies have no name to resolve: they place by value (NewFrom).
func Resolve(name string) (Policy, error) {
	if p, ok := policyByName[strings.ToUpper(strings.TrimSpace(name))]; ok {
		return p, nil
	}
	return None, fmt.Errorf("%w: %w %q", ErrInvalid, mctoperr.ErrUnknownPolicy, name)
}
