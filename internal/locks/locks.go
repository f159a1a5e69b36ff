// Package locks implements the spinlock algorithms of Section 7.1 of the
// MCTOP paper — test-and-set (TAS), test-and-test-and-set (TTAS) and ticket
// locks — each with an optional MCTOP-derived "educated backoff".
//
// The educated-backoff policy (Section 5) sets the backoff quantum to the
// maximum communication latency between any two participating threads:
// messages on a multi-core travel as fast as the coherence protocol, so
// there is no point re-probing a contended line faster than an answer
// could possibly arrive. Ticket locks additionally scale the backoff by the
// thread's distance from the head of the queue.
//
// These are real, runnable Go locks (used by the examples and tests); the
// deterministic reproduction of Figure 8 runs the same algorithms inside
// the lock-contention simulator of internal/contend.
package locks

import (
	"runtime"
	"sync/atomic"

	"repro/internal/topo"
)

// Lock is a spinlock.
type Lock interface {
	Lock()
	Unlock()
}

// Backoff abstracts how a thread waits before re-probing the lock.
type Backoff struct {
	// Quantum is the basic wait, in spin iterations. 0 means the baseline
	// behaviour: a single pause per probe.
	Quantum int64
	// Proportional scales the wait by a position hint (ticket locks).
	Proportional bool
}

// EducatedBackoff derives the backoff quantum from the topology: the
// maximum communication latency among the participating hardware contexts.
// A nil/empty ctxs means "whole machine".
func EducatedBackoff(t *topo.Topology, ctxs []int, proportional bool) Backoff {
	var q int64
	if len(ctxs) == 0 {
		q = t.MaxLatency()
	} else {
		q = t.MaxLatencyBetween(ctxs)
	}
	return Backoff{Quantum: q, Proportional: proportional}
}

// pause burns roughly n cycles without touching shared memory — the role
// the pause instruction plays in the paper's baselines.
func pause(n int64) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := int64(0); i < n; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	if x == 0 {
		panic("unreachable")
	}
}

// yieldEvery is the number of consecutive failed probes after which a
// waiter yields its P. A goroutine spinlock cannot assume the holder is
// running: with more goroutines than Ps the holder (or, for a ticket lock,
// the next in line) may be sitting in the run queue behind the spinners,
// and without a yield every such hand-off waits for async preemption.
const yieldEvery = 32

// wait applies the backoff for the given queue position (1 = next in line)
// after the failed-th consecutive failed probe (counted from 1).
func (b Backoff) wait(position int64, failed int) {
	q := b.Quantum
	if q <= 0 {
		q = 35 // baseline: one pause-instruction-sized breath
	}
	if b.Proportional && position > 1 {
		q *= position
	}
	pause(q)
	if failed%yieldEvery == 0 {
		runtime.Gosched()
	}
}

// TAS is a test-and-set spinlock: every probe is an atomic exchange.
type TAS struct {
	state   int32
	Backoff Backoff
}

var _ Lock = (*TAS)(nil)

// Lock acquires the lock, backing off after every failed probe.
func (l *TAS) Lock() {
	for failed := 1; !atomic.CompareAndSwapInt32(&l.state, 0, 1); failed++ {
		l.Backoff.wait(1, failed)
	}
}

// Unlock releases the lock.
func (l *TAS) Unlock() {
	atomic.StoreInt32(&l.state, 0)
}

// TTAS is a test-and-test-and-set spinlock: it spins reading its cached
// copy and only attempts the atomic exchange when the lock looks free.
type TTAS struct {
	state   int32
	Backoff Backoff
}

var _ Lock = (*TTAS)(nil)

// Lock acquires the lock.
func (l *TTAS) Lock() {
	for failed := 1; ; failed++ {
		if atomic.LoadInt32(&l.state) == 0 &&
			atomic.CompareAndSwapInt32(&l.state, 0, 1) {
			return
		}
		l.Backoff.wait(1, failed)
	}
}

// Unlock releases the lock.
func (l *TTAS) Unlock() {
	atomic.StoreInt32(&l.state, 0)
}

// Ticket is a ticket lock: acquirers take a ticket and wait until the grant
// counter reaches it, guaranteeing FIFO order. With an educated backoff the
// wait between probes is proportional to the thread's queue position
// (Section 7.1: "we set the backoff to be proportional to the position of
// the thread in the queue").
type Ticket struct {
	next    int64
	grant   int64
	Backoff Backoff
}

var _ Lock = (*Ticket)(nil)

// Lock acquires the lock in FIFO order.
func (l *Ticket) Lock() {
	my := atomic.AddInt64(&l.next, 1) - 1
	for failed := 1; ; failed++ {
		cur := atomic.LoadInt64(&l.grant)
		if cur == my {
			return
		}
		l.Backoff.wait(my-cur, failed)
	}
}

// Unlock passes the lock to the next ticket holder.
func (l *Ticket) Unlock() {
	atomic.AddInt64(&l.grant, 1)
}

// Algorithm names the lock algorithms of Figure 8.
type Algorithm int

const (
	// AlgTAS is the test-and-set lock.
	AlgTAS Algorithm = iota
	// AlgTTAS is the test-and-test-and-set lock.
	AlgTTAS
	// AlgTicket is the ticket lock.
	AlgTicket
)

func (a Algorithm) String() string {
	switch a {
	case AlgTAS:
		return "TAS"
	case AlgTTAS:
		return "TTAS"
	case AlgTicket:
		return "TICKET"
	}
	return "Algorithm(?)"
}

// Algorithms returns the three lock algorithms of the evaluation.
func Algorithms() []Algorithm { return []Algorithm{AlgTAS, AlgTTAS, AlgTicket} }

// New builds a lock of the given algorithm with a backoff policy. For
// ticket locks the backoff is made proportional automatically, following
// the paper.
func New(a Algorithm, b Backoff) Lock {
	switch a {
	case AlgTAS:
		return &TAS{Backoff: b}
	case AlgTTAS:
		return &TTAS{Backoff: b}
	case AlgTicket:
		b.Proportional = b.Quantum > 0
		return &Ticket{Backoff: b}
	}
	return nil
}
