// The composable policy layer of MCTOP-PLACE: the 12 builtin policies of
// Table 2 implement the Orderer interface, combinators wrap any Orderer
// into a new one, and a process-wide registry lets applications name custom
// policies so servers (cmd/mctopd) can place with them — the MCTOP-LIB
// model where mapping strategies are pluggable, not a fixed menu.

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

// Orderer is a placement policy: it produces the slot order a Placement
// hands out — slot i is the hardware context the i-th pinned thread runs
// on (-1 means "leave unpinned"). The 12 builtin Policy values implement
// it, as do the combinators below and any user type; NewFrom turns an
// Orderer into a Placement, and registered Orderers are placeable by name
// through Resolve (and therefore through the registry and mctopd).
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
// and ordering pipeline New has always run (socket clamp, power-data
// check, Table 2 order construction, NThreads truncation).
func (p Policy) Order(t *topo.Topology, opt Options) ([]int, error) {
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
	order, err := buildOrder(t, p, nSockets, opt.NThreads)
	if err != nil {
		return nil, err
	}
	n := opt.NThreads
	if n == 0 || n > len(order) {
		n = len(order)
	}
	return order[:n], nil
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

// custom is the process-wide registry of named non-builtin policies,
// keyed by canonical (upper-cased, trimmed) name.
var (
	customMu sync.RWMutex
	custom   = map[string]Orderer{}
)

func canonicalName(s string) string { return strings.ToUpper(strings.TrimSpace(s)) }

// Register makes a custom policy resolvable by its Name — including
// through the registry's string-keyed Place and mctopd's ?policy=
// parameter. Names are case-insensitive; registering an empty name, a
// name that shadows a builtin policy, or a name already registered wraps
// ErrInvalid.
//
// A name permanently identifies one ordering: caches (the registry)
// memoize placements by policy name, so re-registering a *different*
// ordering under a previously used name would be served stale results.
// Unregister exists to retire a name, not to swap implementations — give
// a changed policy a new name (or version the name).
func Register(o Orderer) error {
	name := canonicalName(o.Name())
	if name == "" {
		return fmt.Errorf("%w: policy has empty name", ErrInvalid)
	}
	if _, ok := policyByName[name]; ok {
		return fmt.Errorf("%w: %q shadows a builtin policy", ErrInvalid, name)
	}
	customMu.Lock()
	defer customMu.Unlock()
	if _, ok := custom[name]; ok {
		return fmt.Errorf("%w: policy %q already registered", ErrInvalid, name)
	}
	custom[name] = o
	return nil
}

// Unregister removes a previously registered custom policy (no-op when
// absent).
func Unregister(name string) {
	customMu.Lock()
	defer customMu.Unlock()
	delete(custom, canonicalName(name))
}

// Resolve returns the policy for a name: one of the 12 builtins (with or
// without the MCTOP_PLACE_ prefix) or a registered custom policy, case-
// insensitive. Unknown names wrap both ErrInvalid and
// mctoperr.ErrUnknownPolicy.
func Resolve(name string) (Orderer, error) {
	key := canonicalName(name)
	if p, ok := policyByName[key]; ok {
		return p, nil
	}
	customMu.RLock()
	o, ok := custom[key]
	customMu.RUnlock()
	if ok {
		return o, nil
	}
	return nil, fmt.Errorf("%w: %w %q", ErrInvalid, mctoperr.ErrUnknownPolicy, name)
}

// RegisteredNames lists the registered custom policy names, sorted.
func RegisteredNames() []string {
	customMu.RLock()
	defer customMu.RUnlock()
	out := make([]string, 0, len(custom))
	for name := range custom {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
