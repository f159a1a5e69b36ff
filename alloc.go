package mctop

import (
	"fmt"
	"sync/atomic"

	"repro/internal/mctoperr"
	"repro/internal/place"
)

// Alloc mirrors MCTOP-LIB's mctop_alloc (Section 5): a topology-aware
// thread allocator built from a topology and a policy, which application
// threads query and pin against. Where a Placement is the raw slot order,
// an Alloc is the object an application holds: thread i calls Pin(i) to
// claim its hardware context, Unpin(i) to release it, and the allocator
// answers the Figure 7 questions (cores used, sockets, bandwidth, power,
// latency) about the set as a whole.
//
// The thread-to-context mapping is deterministic: Pin(i) always returns
// slot i of the policy's order, so restarts and replicas agree on who runs
// where. All methods are safe for concurrent use.
type Alloc struct {
	top *Topology
	pl  *Placement
	// order is the placement's slot order, read in place (place.Slots):
	// the placement never changes it, and Placement.Contexts would copy it.
	order []int
	// pinned[i] is set while thread i holds its context: Pin and Unpin are
	// one atomic store, so no pin takes a lock.
	pinned []atomic.Bool
	// opts are the PlaceOptions NewAlloc applied. Each option func is
	// handed a pointer to them, which would move a local Options to the
	// heap; inside the Alloc they cost no allocation of their own.
	opts place.Options
}

// NewAlloc builds an allocator from a topology and a policy — a Table 2
// builtin, a combinator chain, or a custom Policy implementation:
//
//	alloc, err := mctop.NewAlloc(top, mctop.OnSockets(mctop.RRCore, 0).Limit(8))
//	ctx, _ := alloc.Pin(0) // thread 0's hardware context
//
// Correctable failures (nil policy, POWER without power data, negative
// options) wrap ErrInvalidRequest.
func NewAlloc(t *Topology, p Policy, opts ...PlaceOption) (*Alloc, error) {
	a := &Alloc{top: t}
	for _, f := range opts {
		f(&a.opts)
	}
	pl, err := place.NewFrom(t, p, a.opts)
	if err != nil {
		return nil, err
	}
	a.pl, a.order = pl, place.Slots(pl)
	a.pinned = make([]atomic.Bool, len(a.order))
	return a, nil
}

// NumHWContexts returns how many hardware contexts the allocator hands out
// — the number of threads it can pin (mctop_alloc's n_hwcs).
func (a *Alloc) NumHWContexts() int { return a.pl.NThreads() }

// NumCores returns the distinct physical cores behind the allocator's
// contexts.
func (a *Alloc) NumCores() int { return a.pl.NCores() }

// Pin claims thread threadID's hardware context and returns it (-1 means
// "run unpinned", the None policy). Pin is idempotent — pinning an
// already-pinned thread returns the same context — and deterministic:
// thread i always gets slot i of the policy's order. A threadID outside
// [0, NumHWContexts) wraps ErrInvalidRequest.
func (a *Alloc) Pin(threadID int) (hwContext int, err error) {
	if threadID < 0 || threadID >= len(a.order) {
		return -1, fmt.Errorf("%w: thread id %d outside [0, %d)",
			mctoperr.ErrInvalidRequest, threadID, len(a.order))
	}
	a.pinned[threadID].Store(true)
	return a.order[threadID], nil
}

// Unpin releases thread threadID's claim (a no-op when not pinned). A
// threadID outside [0, NumHWContexts) wraps ErrInvalidRequest.
func (a *Alloc) Unpin(threadID int) error {
	if threadID < 0 || threadID >= len(a.order) {
		return fmt.Errorf("%w: thread id %d outside [0, %d)",
			mctoperr.ErrInvalidRequest, threadID, len(a.order))
	}
	a.pinned[threadID].Store(false)
	return nil
}

// NumPinned returns how many threads currently hold their context. Each
// thread's flag is read atomically, but not all of them at one instant:
// while other threads pin and unpin, a thread counts as pinned when it was
// at the moment its flag was read.
func (a *Alloc) NumPinned() int {
	n := 0
	for i := range a.pinned {
		if a.pinned[i].Load() {
			n++
		}
	}
	return n
}

// Contexts returns the full thread-to-context order (a copy): entry i is
// what Pin(i) returns.
func (a *Alloc) Contexts() []int { return a.pl.Contexts() }

// PolicyName returns the identity of the policy the allocator was built
// from (e.g. "MCTOP_PLACE_RR_CORE.ON_SOCKETS(0).LIMIT(8)").
func (a *Alloc) PolicyName() string { return a.pl.PolicyName() }

// Topology returns the allocator's topology.
func (a *Alloc) Topology() *Topology { return a.top }

// Placement exposes the underlying placement for the Figure 7 accessors
// (MaxLatency, MinBandwidth, MaxPower, CtxPerSocket, …). Treat it as
// read-only; the Alloc owns the pin state.
func (a *Alloc) Placement() *Placement { return a.pl }

// Report renders the placement report of Figure 7.
func (a *Alloc) Report() string { return a.pl.String() }
