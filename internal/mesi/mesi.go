// Package mesi implements a deterministic MESI cache-coherence engine.
//
// The MCTOP paper (EuroSys '17) rests on the observation that hardware
// cache-coherence protocols are deterministic in the absence of contention:
// a given request type, for a line in a given state and placement, always
// takes the same steps and therefore the same time (Section 3, Observation
// 1, and the RFO walk-through of Figure 4). This package models exactly
// that: per-core private caches, per-socket last-level caches, and a MESI
// state machine whose transitions are charged deterministic cycle costs
// supplied by a platform-specific CostModel.
//
// The engine is used by the machine simulator (internal/sim) to answer the
// latency probes of MCTOP-ALG and by the lock-contention simulator
// (internal/contend) to model spinlock cache-line traffic.
package mesi

import (
	"fmt"
	"sort"
)

// State is the MESI state of a cache line in a particular cache.
type State uint8

const (
	// Invalid: the line is not cached anywhere (engine-wide view).
	Invalid State = iota
	// Shared: one or more cores hold read-only copies; memory is clean.
	Shared
	// Exclusive: exactly one core holds the only, clean copy.
	Exclusive
	// Modified: exactly one core holds the only, dirty copy.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Op is the kind of memory access performed on a line.
type Op uint8

const (
	// Load is a plain read (request-for-share on a miss).
	Load Op = iota
	// Store is a plain write (request-for-ownership on a miss or upgrade).
	Store
	// CAS is an atomic read-modify-write. For coherence purposes it behaves
	// like Store — it brings the line into the Modified state — but costs
	// may differ (atomics pay a small fixed overhead even on a hit).
	CAS
)

func (o Op) String() string {
	switch o {
	case Load:
		return "Load"
	case Store:
		return "Store"
	case CAS:
		return "CAS"
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// CostModel supplies the deterministic cycle costs of coherence actions for
// a specific platform. All methods must be pure functions of their
// arguments. The transfer costs are end-to-end: they already include the
// private-cache misses, the LLC or directory lookup, the invalidation of
// the previous owner and the data response, matching what a software
// latency probe observes (e.g. 28 / ~112 / ~308 cycles on the paper's
// 2-socket Ivy Bridge).
type CostModel interface {
	// HitCost is a hit in the requester core's private cache hierarchy.
	HitCost(op Op) int64
	// SameCoreTransfer is the observed latency when the previous owner is
	// the other SMT context of the same core (the "28 cycles" diagonal of
	// Figure 6; elevated above the L1 latency because both threads execute
	// on one core).
	SameCoreTransfer(op Op) int64
	// SameSocketTransfer is a cache-to-cache transfer between two cores of
	// one socket. The per-(core,core) argument pair allows platforms to
	// model deterministic on-die distance effects (ring/mesh position).
	SameSocketTransfer(op Op, socket, fromCore, toCore int) int64
	// CrossSocketTransfer is a transfer between cores of different sockets,
	// routed over the interconnect (possibly multiple hops). fromCore and
	// toCore allow deterministic per-pair spread; toCore may be -1 when the
	// exact remote core is unknown (e.g. fetching from a remote LLC).
	CrossSocketTransfer(op Op, fromSocket, fromCore, toSocket, toCore int) int64
	// MemoryAccess is a miss served from the home node's memory.
	MemoryAccess(op Op, socket int, line uint64) int64
	// UpgradeCost is the cost of invalidating sharers for a Store/CAS on a
	// Shared line; crossSocket reports whether any sharer is remote.
	UpgradeCost(op Op, crossSocket bool) int64
}

// lineState is the engine-wide view of one cache line.
type lineState struct {
	state       State
	ownerCtx    int // context that performed the last M/E-granting access
	ownerCore   int
	ownerSock   int
	sharerCores map[int]int // core -> socket of cores holding S copies
}

// System is a MESI coherence engine over a fixed topology.
type System struct {
	coreOf, socketOf []int32 // context -> core / socket, equal lengths
	cost             CostModel
	lines            map[uint64]*lineState

	// memo is the line of the last lookup, memoAddr its address. A
	// measurement ping-pongs on one line for its whole life, so the memo
	// answers every lookup after the first without hashing.
	memo     *lineState
	memoAddr uint64

	// Statistics, useful for tests and the contention simulator.
	Hits, Misses, Transfers, MemAccesses uint64
}

// New returns an empty coherence engine over len(coreOf) hardware contexts.
// coreOf and socketOf tell it which core and socket each context belongs
// to: private caches are per core (SMT contexts of a core share them), LLCs
// are per socket. The engine reads the tables and never writes them, so
// many engines may share one pair. All lines start Invalid.
func New(coreOf, socketOf []int32, cost CostModel) *System {
	return &System{coreOf: coreOf, socketOf: socketOf, cost: cost, lines: make(map[uint64]*lineState)}
}

// Reset invalidates every line and clears statistics.
func (s *System) Reset() {
	s.lines = make(map[uint64]*lineState)
	s.memo = nil
	s.Hits, s.Misses, s.Transfers, s.MemAccesses = 0, 0, 0, 0
}

func (s *System) line(addr uint64) *lineState {
	if s.memo != nil && s.memoAddr == addr {
		return s.memo
	}
	l, ok := s.lines[addr]
	if !ok {
		l = &lineState{state: Invalid, ownerCtx: -1, ownerCore: -1, ownerSock: -1}
		s.lines[addr] = l
	}
	s.memo, s.memoAddr = l, addr
	return l
}

// Access performs op on line addr from hardware context ctx, updates the
// coherence state, and returns the deterministic cycle cost of the access.
func (s *System) Access(ctx int, addr uint64, op Op) int64 {
	if ctx < 0 || ctx >= len(s.coreOf) {
		panic(fmt.Sprintf("mesi: context %d out of range [0,%d)", ctx, len(s.coreOf)))
	}
	core := int(s.coreOf[ctx])
	sock := int(s.socketOf[ctx])
	l := s.line(addr)

	switch op {
	case Load:
		return s.load(l, ctx, core, sock, addr)
	case Store, CAS:
		return s.store(l, ctx, core, sock, addr, op)
	}
	panic(fmt.Sprintf("mesi: unknown op %v", op))
}

func (s *System) load(l *lineState, ctx, core, sock int, addr uint64) int64 {
	switch l.state {
	case Modified, Exclusive:
		if l.ownerCore == core {
			// Hit in the core's private cache (possibly brought in by the
			// SMT sibling — private caches are shared between siblings).
			s.Hits++
			l.ownerCtx = ctx
			return s.cost.HitCost(Load)
		}
		// Cache-to-cache transfer; the line is downgraded to Shared and the
		// dirty data (if Modified) written back.
		s.Transfers++
		var c int64
		if l.ownerSock == sock {
			c = s.cost.SameSocketTransfer(Load, sock, l.ownerCore, core)
		} else {
			c = s.cost.CrossSocketTransfer(Load, sock, core, l.ownerSock, l.ownerCore)
		}
		prevCore, prevSock := l.ownerCore, l.ownerSock
		l.state = Shared
		l.sharerCores = map[int]int{prevCore: prevSock, core: sock}
		l.ownerCtx, l.ownerCore, l.ownerSock = -1, -1, -1
		return c

	case Shared:
		if _, ok := l.sharerCores[core]; ok {
			s.Hits++
			return s.cost.HitCost(Load)
		}
		// Fetch a copy: from the LLC of the local socket if any sharer is
		// local, otherwise from the nearest remote sharer's socket.
		s.Transfers++
		var c int64
		if sharerSock, local := s.nearestSharer(l, sock); local {
			c = s.cost.SameSocketTransfer(Load, sock, s.sharerCoreOn(l, sock), core)
		} else {
			c = s.cost.CrossSocketTransfer(Load, sock, core, sharerSock, s.sharerCoreOn(l, sharerSock))
		}
		l.sharerCores[core] = sock
		return c

	default: // Invalid
		s.Misses++
		s.MemAccesses++
		c := s.cost.MemoryAccess(Load, sock, addr)
		l.state = Exclusive
		l.ownerCtx, l.ownerCore, l.ownerSock = ctx, core, sock
		return c
	}
}

func (s *System) store(l *lineState, ctx, core, sock int, addr uint64, op Op) int64 {
	switch l.state {
	case Modified, Exclusive:
		if l.ownerCore == core {
			var c int64
			if op == CAS && l.ownerCtx != ctx && l.ownerCtx >= 0 {
				// SMT sibling ping-pong on one core: this is the latency the
				// lock-step measurement of Figure 5 observes for same-core
				// context pairs.
				c = s.cost.SameCoreTransfer(op)
			} else {
				c = s.cost.HitCost(op)
			}
			s.Hits++
			l.state = Modified
			l.ownerCtx = ctx
			return c
		}
		// RFO: invalidate the remote owner's copy and take the line.
		s.Transfers++
		var c int64
		if l.ownerSock == sock {
			c = s.cost.SameSocketTransfer(op, sock, l.ownerCore, core)
		} else {
			c = s.cost.CrossSocketTransfer(op, sock, core, l.ownerSock, l.ownerCore)
		}
		l.state = Modified
		l.ownerCtx, l.ownerCore, l.ownerSock = ctx, core, sock
		l.sharerCores = nil
		return c

	case Shared:
		// Upgrade: invalidate all sharers.
		s.Transfers++
		cross := false
		for _, shSock := range l.sharerCores {
			if shSock != sock {
				cross = true
				break
			}
		}
		_, held := l.sharerCores[core]
		c := s.cost.UpgradeCost(op, cross)
		if !held {
			// Also needs the data, not just permissions.
			if shSock, local := s.nearestSharer(l, sock); local {
				c += s.cost.SameSocketTransfer(op, sock, s.sharerCoreOn(l, sock), core) / 2
			} else {
				c += s.cost.CrossSocketTransfer(op, sock, core, shSock, s.sharerCoreOn(l, shSock)) / 2
			}
		}
		l.state = Modified
		l.ownerCtx, l.ownerCore, l.ownerSock = ctx, core, sock
		l.sharerCores = nil
		return c

	default: // Invalid
		s.Misses++
		s.MemAccesses++
		c := s.cost.MemoryAccess(op, sock, addr)
		l.state = Modified
		l.ownerCtx, l.ownerCore, l.ownerSock = ctx, core, sock
		return c
	}
}

// nearestSharer returns the socket of a sharer, preferring the requester's
// own socket; local reports whether a sharer exists on the requester's
// socket.
func (s *System) nearestSharer(l *lineState, sock int) (sharerSock int, local bool) {
	sharerSock = -1
	for _, shSock := range l.sharerCores {
		if shSock == sock {
			return sock, true
		}
		if sharerSock == -1 || shSock < sharerSock {
			sharerSock = shSock
		}
	}
	return sharerSock, false
}

// sharerCoreOn returns the lowest-numbered sharer core on the given socket,
// or -1 if that socket holds no copy.
func (s *System) sharerCoreOn(l *lineState, sock int) int {
	best := -1
	for core, shSock := range l.sharerCores {
		if shSock == sock && (best == -1 || core < best) {
			best = core
		}
	}
	return best
}

// StateOf returns the engine-wide state of a line, its owning context (or
// -1) and the sorted list of sharer cores (for Shared lines).
func (s *System) StateOf(addr uint64) (state State, ownerCtx int, sharerCores []int) {
	l, ok := s.lines[addr]
	if !ok {
		return Invalid, -1, nil
	}
	for core := range l.sharerCores {
		sharerCores = append(sharerCores, core)
	}
	sort.Ints(sharerCores)
	return l.state, l.ownerCtx, sharerCores
}

// Invalidate flushes a line from all caches (back to Invalid).
func (s *System) Invalidate(addr uint64) {
	delete(s.lines, addr)
	s.memo = nil
}

// CheckInvariants validates the global MESI invariants:
//   - M/E lines have exactly one owner and no sharers;
//   - S lines have at least one sharer and no owner;
//   - I lines are not tracked at all.
//
// It returns a descriptive error for the first violation found.
func (s *System) CheckInvariants() error {
	for addr, l := range s.lines {
		switch l.state {
		case Modified, Exclusive:
			if l.ownerCore < 0 || l.ownerCtx < 0 {
				return fmt.Errorf("mesi: line %#x in %v without owner", addr, l.state)
			}
			if len(l.sharerCores) != 0 {
				return fmt.Errorf("mesi: line %#x in %v with %d sharers", addr, l.state, len(l.sharerCores))
			}
			if got := int(s.coreOf[l.ownerCtx]); got != l.ownerCore {
				return fmt.Errorf("mesi: line %#x owner core mismatch: ctx %d is core %d, recorded %d",
					addr, l.ownerCtx, got, l.ownerCore)
			}
		case Shared:
			if len(l.sharerCores) == 0 {
				return fmt.Errorf("mesi: line %#x Shared with no sharers", addr)
			}
			if l.ownerCtx != -1 {
				return fmt.Errorf("mesi: line %#x Shared with owner %d", addr, l.ownerCtx)
			}
		case Invalid:
			return fmt.Errorf("mesi: line %#x tracked in Invalid state", addr)
		}
	}
	return nil
}
