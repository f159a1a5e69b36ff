// Package spool is the registry's persistent cache tier: a directory of
// MCTOP description files. The paper's deployment model is that a topology
// is "created once, then used to load the topology" from disk thereafter
// (Section 2) — the spool turns that artifact into a cache level, so a
// restarted daemon warm-starts from the files a previous process inferred
// instead of re-running the O(N²) measurement phase.
//
// One file per entry, flat in the spool directory, named
// <sanitized-key>-<fnv64> plus the kind's extension (.mctop, .place,
// .map); the formats, their shared framing and the rules binding a file to
// its key are documented once, in README.md's "Persistence" section. A
// sidecar is rebuilt on the topology it names (place.Reconstruct,
// taskmap.Reconstruct) without re-running its policy or mapper.
//
// A sidecar shares its tier's live decoded topology: while anything (a
// cache, an in-flight request, the write-behind queue) still holds the
// topology a sidecar names, loading the sidecar reuses that value and its
// query index instead of decoding the description file again. The memo
// behind this (TopoMemo, shared with the remote tier) never retains a
// topology itself.
//
// Writes are write-behind: Put enqueues to a background writer (falling
// back to a synchronous write when the queue is full, so nothing is ever
// dropped), every file lands via write-temp-then-rename so a crash can
// never leave a torn file under a spool name, and Flush/Close drain the
// queue — what mctopd calls on SIGTERM. Reads that hit an undecodable or
// foreign file count an error, quarantine the file (moved under
// quarantine/ so it is never rescanned, with the original bytes kept for
// forensics), and report a miss: a broken disk degrades to re-inference,
// never to a serving failure. A failed write flips the spool to a
// degraded (effectively read-only) state — see Degraded — until a write
// succeeds again; mctopd's /readyz reports it.
package spool

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/registry"
	"repro/internal/topo"
	"repro/internal/trace"
)

const (
	writeBacklog = 64
	// quarantineDir, under the spool directory, receives undecodable
	// files. It is excluded from the startup scan (scan skips
	// directories) and from the size/age bounds — quarantined files are
	// corruption evidence, removed by operators.
	quarantineDir = "quarantine"
)

// Spool is a registry.Store persisting entries as description files.
type Spool struct {
	dir  string
	logf func(format string, args ...any)

	// maxBytes / maxAge bound the directory (0 = unlimited): enforced at
	// the startup scan and after every Flush/Close, evicting
	// oldest-mtime files first. See enforceLimits.
	maxBytes int64
	maxAge   time.Duration

	mu      sync.Mutex
	entries map[string]registry.Kind // keys with a durable file on disk

	// sendMu serializes Put/Flush senders against Close closing the
	// channel; closed flips first so late senders degrade to no-ops.
	sendMu  sync.RWMutex
	closed  bool
	pending chan writeOp
	done    chan struct{} // writer goroutine exited

	// topos memoizes every decoded topology still alive: a sidecar loads
	// against it instead of re-decoding its description file (and
	// rebuilding its query index). It never keeps a topology alive.
	topos TopoMemo

	puts        atomic.Int64
	errors      atomic.Int64
	quarantined atomic.Int64
	kinds       registry.KindCounters

	// writeFailed flips on a failed file write and clears on the next
	// success: while set, the spool is effectively read-only (new entries
	// are not durable) and Degraded reports it.
	writeFailed atomic.Bool

	// faults, when non-nil, hosts the spool's injection points
	// (faultinject.SpoolWrite/SpoolRead/SpoolScan). nil in production.
	faults *faultinject.Set

	// tracer, when set, opens root spans for the write-behind path — the
	// background writer has no request context to parent onto. Read-path
	// spans ride the request context instead (Lookup) and need no tracer
	// here. nil means untraced.
	tracer *trace.Tracer
}

// writeOp is one queued write of an entry, or a flush barrier (flush !=
// nil).
type writeOp struct {
	entry *registry.Entry
	flush chan struct{}
}

// Option configures a Spool.
type Option func(*Spool)

// WithLogf redirects the spool's skip-and-log messages (default:
// log.Printf with a "spool: " prefix).
func WithLogf(logf func(format string, args ...any)) Option {
	return func(s *Spool) { s.logf = logf }
}

// WithMaxBytes bounds the spool directory's total size (<= 0 = unlimited).
// The bound is enforced at the startup scan and after every Flush/Close by
// evicting oldest-mtime files first — the hygiene bound for long-lived
// daemons whose spool would otherwise only grow. A single entry larger
// than the bound is itself evicted.
func WithMaxBytes(n int64) Option {
	return func(s *Spool) { s.maxBytes = n }
}

// WithMaxAge evicts spool files whose mtime is older than d (<= 0 =
// unlimited), on the same schedule as WithMaxBytes. A topology this stale
// re-infers (and re-spools, refreshing its mtime) on next use.
func WithMaxAge(d time.Duration) Option {
	return func(s *Spool) { s.maxAge = d }
}

// WithFaults arms the spool's fault-injection points (see
// faultinject.SpoolWrite/SpoolRead/SpoolScan). A nil set is valid and
// means no injection — the production default.
func WithFaults(fs *faultinject.Set) Option {
	return func(s *Spool) { s.faults = fs }
}

// WithTracer traces the spool's background work: each write-behind persist
// and each quarantine becomes a root span of its own trace (there is no
// request context to join by the time the writer goroutine runs). Failed
// writes and quarantines carry error status, so they are kept even when
// unsampled. A nil tracer is valid and means untraced.
func WithTracer(tr *trace.Tracer) Option {
	return func(s *Spool) { s.tracer = tr }
}

// New opens (creating if needed) a spool directory and scans it: files
// with a readable key header become servable entries; undecodable or
// foreign files are quarantined once (moved under quarantine/) and
// leftover temporary files removed — a torn or corrupt spool must never
// fail a daemon's startup, and must never be rescanned every restart.
func New(dir string, opts ...Option) (*Spool, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spool: %w", err)
	}
	s := &Spool{
		dir:     dir,
		logf:    func(format string, args ...any) { log.Printf("spool: "+format, args...) },
		entries: make(map[string]registry.Kind),
		pending: make(chan writeOp, writeBacklog),
		done:    make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.enforceLimits()
	go s.writer()
	return s, nil
}

// Dir returns the spool directory.
func (s *Spool) Dir() string { return s.dir }

// scan indexes the directory by each file's key header. Only the header is
// read here — full decoding (and its skip-and-log handling) happens on
// Lookup, so startup stays O(files), not O(bytes).
func (s *Spool) scan() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("spool: %w", err)
	}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		kind, ok := registry.KindOfExt(filepath.Ext(name))
		if !ok {
			// Leftover temp files from a crashed writer are dead weight:
			// renames are atomic, so nothing references them.
			if strings.HasSuffix(name, ".tmp") {
				if err := os.Remove(filepath.Join(s.dir, name)); err == nil {
					s.logf("removed stale temp file %s", name)
				}
			}
			continue
		}
		// The header alone: the one framing reader stops before the
		// first directive.
		f, err := os.Open(filepath.Join(s.dir, name))
		var key string
		if err == nil {
			key, err = topo.ReadFrame(f, magics[kind], nil)
			f.Close()
		}
		if _, fired := s.faults.Eval(faultinject.SpoolScan); fired && err == nil {
			err = fmt.Errorf("unreadable header (injected)")
		}
		if err == nil && fileName(key, kind) != name {
			err = fmt.Errorf("header names key %q", key)
		}
		if err != nil {
			s.quarantine(name, err)
			continue
		}
		s.entries[key] = kind
	}
	return nil
}

// quarantine moves one undecodable spool file under quarantine/, counting
// it in both the error and quarantine counters. The move is what keeps a
// corrupt file from being re-skipped on every restart (and, on the Lookup
// path, from being re-decoded on every miss) while preserving its bytes
// for inspection. If the move itself fails the file stays put — the old
// skip-and-log behavior, just slower.
func (s *Spool) quarantine(name string, reason error) {
	if s.tracer.Enabled() {
		// Quarantines are corruption evidence: a root span with error
		// status, so every one survives sampling.
		_, sp := s.tracer.Start(context.Background(), "spool.quarantine")
		sp.SetAttr("file", name)
		sp.SetError(reason)
		sp.End()
	}
	s.errors.Add(1)
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		s.logf("quarantining %s: %v (file left in place)", name, err)
		return
	}
	if err := os.Rename(filepath.Join(s.dir, name), filepath.Join(qdir, name)); err != nil {
		s.logf("quarantining %s: %v (file left in place)", name, err)
		return
	}
	s.quarantined.Add(1)
	s.logf("quarantined %s: %v", name, reason)
}

// fileName maps a registry key to its spool file: a sanitized, truncated
// prefix for humans listing the directory, plus the full FNV-64a of the
// key so sanitization can never make two keys collide, under the kind's
// extension.
func fileName(key string, kind registry.Kind) string {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	var b strings.Builder
	for _, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
		if b.Len() >= 80 {
			break
		}
	}
	return fmt.Sprintf("%s-%016x%s", b.String(), h, kind.Ext())
}

// Lookup implements registry.Store: decode the entry's file into a fresh
// entry, degrading every failure to a logged miss. A traced request sees the decode as a
// span — including the decode failures that degrade to misses, which keep
// the span (and its quarantine event) even when the trace is unsampled.
func (s *Spool) Lookup(ctx context.Context, kind registry.Kind, key string) (any, string, bool) {
	s.mu.Lock()
	k, ok := s.entries[key]
	s.mu.Unlock()
	if !ok || k != kind {
		s.kinds.Miss(kind)
		return nil, "", false
	}
	_, sp := trace.Start(ctx, "spool.read")
	sp.SetAttr("kind", kind.String())
	defer sp.End()
	var (
		v   any
		err error
	)
	if o, fired := s.faults.Eval(faultinject.SpoolRead); fired {
		err = o.Err(faultinject.SpoolRead)
	} else {
		v, err = s.load(kind, key)
	}
	if err != nil {
		// An entry that indexed at scan but fails to decode is corrupt
		// (or, for a sidecar, references a corrupt topology): quarantine
		// the requested entry's file so the next Lookup is a clean miss
		// instead of another decode of the same broken bytes. The caller
		// re-infers/fetches and re-Puts, restoring a good file.
		sp.SetError(err)
		sp.AddEvent("quarantine")
		s.mu.Lock()
		delete(s.entries, key)
		s.mu.Unlock()
		s.topos.Forget(key)
		s.quarantine(fileName(key, kind), err)
		s.kinds.Miss(kind)
		return nil, "", false
	}
	s.kinds.Hit(kind)
	return registry.NewEntry(kind, key, v), "spool", true
}

// load decodes one entry's file through the interchange codec; a sidecar
// resolves the topology it references through load again (and the memo).
func (s *Spool) load(kind registry.Kind, key string) (any, error) {
	if kind == registry.KindTopology {
		if t := s.topos.Get(key); t != nil {
			return t, nil
		}
	}
	path := filepath.Join(s.dir, fileName(key, kind))
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	v, err := Decode(f, kind, key, func(topoKey string) (*topo.Topology, error) {
		t, err := s.load(registry.KindTopology, topoKey)
		if err != nil {
			return nil, err
		}
		return t.(*topo.Topology), nil
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if t, ok := v.(*topo.Topology); ok {
		s.topos.Set(key, t)
	}
	return v, nil
}

// Put implements registry.Store: enqueue a write-behind of the entry,
// falling back to a synchronous write when the queue is full so no
// accepted entry is ever dropped. The file is the entry's own interchange
// file, under the entry's key. A value that is not an entry, and any Put
// after Close, is dropped (and logged): the spool is no longer durable
// once closed.
func (s *Spool) Put(kind registry.Kind, key string, val any) {
	e, ok := val.(*registry.Entry)
	if !ok {
		s.logf("dropping write of %q: %T is not a cache entry", key, val)
		s.errors.Add(1)
		return
	}
	s.sendMu.RLock()
	if s.closed {
		s.sendMu.RUnlock()
		s.logf("dropping write of %q: spool is closed", key)
		s.errors.Add(1)
		return
	}
	select {
	case s.pending <- writeOp{entry: e}:
		s.sendMu.RUnlock()
	default:
		s.sendMu.RUnlock()
		s.writeTraced(e)
	}
}

// writer is the write-behind goroutine: it drains the queue, turning each
// op into an atomic file write, and acknowledges flush barriers in FIFO
// order (every write accepted before the Flush is durable when it fires).
func (s *Spool) writer() {
	defer close(s.done)
	for op := range s.pending {
		if op.flush != nil {
			close(op.flush)
			continue
		}
		s.writeTraced(op.entry)
	}
}

// writeTraced runs one write-behind persist under a root span: the writer
// goroutine has no request context, so each persist is its own
// single-span trace — dropped when clean and unsampled, kept when it
// fails.
func (s *Spool) writeTraced(e *registry.Entry) {
	if !s.tracer.Enabled() {
		s.write(e)
		return
	}
	_, sp := s.tracer.Start(context.Background(), "spool.write")
	sp.SetAttr("kind", e.Kind.String())
	sp.SetError(s.write(e))
	sp.End()
}

// write persists one entry: its interchange file (Encoded, shared with
// every other reader of the entry), landed via a temp file renamed over
// the final name — the atomicity that guarantees a crash can never leave a
// torn file where a reader looks. The returned error reports the failure
// for tracing; counters and logs are already handled here, so callers need
// not act on it.
func (s *Spool) write(e *registry.Entry) error {
	encoded, err := Encoded(e)
	if err != nil {
		s.logf("dropping write of %q: %v", e.Key, err)
		s.errors.Add(1)
		return err
	}
	// Invariant: a durable sidecar implies a durable topology — loading
	// the sidecar needs the referenced .mctop file. The normal daemon flow
	// Puts the topology first, but an entry promoted from a remote tier
	// arrives alone; persist its topology alongside or the sidecar is dead
	// weight on restart.
	if parent, ok := e.Kind.ParentKey(e.Key); ok {
		s.mu.Lock()
		_, haveTopo := s.entries[parent]
		s.mu.Unlock()
		if dep, ok := e.Val.(interface{ Topology() *topo.Topology }); ok && !haveTopo {
			if t := dep.Topology(); t != nil {
				s.write(registry.NewEntry(registry.KindTopology, parent, t))
			}
		}
	}
	path := filepath.Join(s.dir, fileName(e.Key, e.Kind))
	if o, fired := s.faults.Eval(faultinject.SpoolWrite); fired {
		return s.failWrite(e, path, encoded, o)
	}
	err = topo.WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(encoded)
		return err
	})
	if err != nil {
		s.logf("writing %q: %v", e.Key, err)
		s.errors.Add(1)
		s.writeFailed.Store(true)
		return err
	}
	s.writeFailed.Store(false)
	s.puts.Add(1)
	s.mu.Lock()
	s.entries[e.Key] = e.Kind
	s.mu.Unlock()
	return nil
}

// failWrite executes an injected spool.write fault. Modes "enospc",
// "eperm" and the default fail the write outright — the disk-full /
// permission-lost shape, flipping the spool degraded. Mode "torn" lands a
// half-written file directly under the final spool name and indexes it:
// the shape of a crash mid-write on a filesystem without atomic rename,
// which the quarantine path must absorb on the next Lookup or restart scan.
func (s *Spool) failWrite(e *registry.Entry, path string, encoded []byte, o faultinject.Outcome) error {
	switch o.Mode {
	case "torn", "short":
		torn := encoded[:len(encoded)/2]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			s.logf("writing %q: %v", e.Key, err)
			s.errors.Add(1)
			s.writeFailed.Store(true)
			return err
		}
		s.logf("writing %q: torn write injected (%d of %d bytes)", e.Key, len(torn), len(encoded))
		s.errors.Add(1)
		// Index the torn file like a completed write would: serving it is
		// exactly the corruption the read path's quarantine must catch.
		s.mu.Lock()
		s.entries[e.Key] = e.Kind
		s.mu.Unlock()
		s.topos.Forget(e.Key)
		return fmt.Errorf("torn write injected")
	default: // "enospc", "eperm", "fail", ...
		err := o.Err(faultinject.SpoolWrite)
		s.logf("writing %q: %v", e.Key, err)
		s.errors.Add(1)
		s.writeFailed.Store(true)
		return err
	}
}

// Degraded reports whether the spool is effectively read-only: the most
// recent file write failed (disk full, permissions, ...), so new entries
// are not landing durably. It self-heals — the next successful write
// clears it. mctopd's /readyz surfaces this as a degraded spool tier.
func (s *Spool) Degraded() (bool, string) {
	if s.writeFailed.Load() {
		return true, "last write failed; spool is effectively read-only"
	}
	return false, ""
}

// Len implements registry.Store.
func (s *Spool) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats implements registry.Store.
func (s *Spool) Stats() []registry.StoreStats {
	st := registry.StoreStats{
		Tier:        "spool",
		Puts:        s.puts.Load(),
		Errors:      s.errors.Load(),
		Quarantined: s.quarantined.Load(),
	}
	var resident [registry.NumKinds]int
	s.mu.Lock()
	for _, kind := range s.entries {
		resident[kind]++
	}
	s.mu.Unlock()
	s.kinds.Snapshot(&st, resident)
	return []registry.StoreStats{st}
}

// Flush implements registry.Store: block until every Put accepted so far
// is durable on disk, then enforce the size/age bounds — the one point
// where every accepted write has landed and the directory's true size is
// knowable.
func (s *Spool) Flush() error {
	drained := s.done // once closed, the writer drains the queue before exiting
	s.sendMu.RLock()
	if !s.closed {
		drained = make(chan struct{})
		s.pending <- writeOp{flush: drained}
	}
	s.sendMu.RUnlock()
	<-drained
	s.enforceLimits()
	return nil
}

// Close implements registry.Store: flush and stop the writer. Lookups keep
// working; later Puts are dropped with a log line.
func (s *Spool) Close() error {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		<-s.done
		return nil
	}
	s.closed = true
	close(s.pending)
	s.sendMu.Unlock()
	<-s.done
	s.enforceLimits()
	return nil
}

// enforceLimits applies the WithMaxBytes/WithMaxAge bounds: stat every
// entry, then evict oldest-mtime first while any file is past the age
// bound or the directory is over the byte budget. Both walks stop at the
// first file that satisfies the bounds — mtime-sorted, everything after it
// does too. Files a queued write has not landed yet stat to ENOENT and are
// skipped (the next Flush sweeps them).
func (s *Spool) enforceLimits() {
	if s.maxBytes <= 0 && s.maxAge <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	type entry struct {
		key   string
		kind  registry.Kind
		size  int64
		mtime time.Time
	}
	ents := make([]entry, 0, len(s.entries))
	var total int64
	for key, kind := range s.entries {
		fi, err := os.Stat(filepath.Join(s.dir, fileName(key, kind)))
		if err != nil {
			continue
		}
		ents = append(ents, entry{key, kind, fi.Size(), fi.ModTime()})
		total += fi.Size()
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].mtime.Before(ents[j].mtime) })
	cutoff := time.Now().Add(-s.maxAge)
	evictedTopos := map[string]bool{}
	for _, e := range ents {
		expired := s.maxAge > 0 && e.mtime.Before(cutoff)
		over := s.maxBytes > 0 && total > s.maxBytes
		if !expired && !over {
			break
		}
		if s.evictLocked(e.key, e.kind, e.size, e.mtime) {
			total -= e.size
			if e.kind == registry.KindTopology {
				evictedTopos[e.key] = true
			}
		}
	}
	if len(evictedTopos) == 0 {
		return
	}
	// Cascade: a sidecar whose topology was just evicted can never load
	// again (every Lookup would fail to a logged miss) yet would keep its
	// index slot and its share of the byte budget. Drop them now.
	for _, e := range ents {
		if k, live := s.entries[e.key]; !live || k != e.kind {
			continue
		}
		if parent, ok := e.kind.ParentKey(e.key); ok && evictedTopos[parent] {
			s.evictLocked(e.key, e.kind, e.size, e.mtime)
		}
	}
}

// evictLocked removes one entry's file and index slot (s.mu held).
func (s *Spool) evictLocked(key string, kind registry.Kind, size int64, mtime time.Time) bool {
	name := fileName(key, kind)
	if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
		s.logf("evicting %s: %v", name, err)
		s.errors.Add(1)
		return false
	}
	delete(s.entries, key)
	s.kinds.Evict(kind)
	s.logf("evicted %s (%d bytes, mtime %s)", name, size, mtime.Format(time.RFC3339))
	s.topos.Forget(key)
	return true
}
