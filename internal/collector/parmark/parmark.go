// Package parmark is the parallel mark engine: N workers trace the heap
// concurrently, claiming objects via an atomic mark-bit CAS
// (heap.ClaimMark).
//
// Work distribution follows the Go runtime's gcWork/workbuf design. Each
// worker marks from a private stack. While some worker is parked for lack
// of work, a busy worker moves a packet of packetSize items from the bottom
// of its stack into a mutex-guarded pool; a worker whose stack runs dry
// takes a packet from the pool or parks. The mark ends when every worker is
// parked and the pool is empty.
//
// The paper's path-reconstruction trick (§2.7) keeps the current DFS path
// on the worklist, which only works with one sequential depth-first
// worklist. Workers here record no paths at all: paths are needed only for
// the rare violation, so the Resolver searches the marked objects for them
// at merge time (resolver.go).
//
// Assertion checks ride on the claim: the CAS returns the pre-claim header
// word, so a worker learns mark status, assertion flags, and TypeID from
// the single atomic access — the parallel restatement of the paper's
// "checks piggyback on a header load the tracer does anyway". Checks are
// performed by per-worker shards (no locks on the edge path) and merged
// single-threaded after the workers join; see the Checks interface and
// internal/core's implementation of it.
package parmark

import (
	"sync"
	"sync/atomic"
	"time"

	"gcassert/internal/heap"
)

// packetSize is the number of work items moved to or from the shared pool
// at once.
const packetSize = 256

// Root is one root slot handed to the engine. Slot points at live storage
// so force-true severing can clear it; each root index is processed by
// exactly one worker.
type Root struct {
	Slot *heap.Addr
	Desc string
}

// Shard receives one worker's share of the per-edge assertion checks. A
// shard is owned by a single worker for the duration of a mark; it may use
// the heap's atomic flag API for cross-worker once-only elections but must
// not touch shared engine state (that happens in Checks.Merge).
type Shard interface {
	// OnEdge is invoked for an edge parent→child when the child carried
	// assertion flags in oldHeader, or — if Checks.WantAllClaims — for
	// every claiming edge. For a root edge parent == heap.Nil, slot == -1
	// and root is the root's index; for a heap edge root is -1.
	// claimed reports whether this worker's claim won (first encounter);
	// oldHeader is the child's header word before the claim.
	OnEdge(parent heap.Addr, slot int, root int32, child heap.Addr, oldHeader uint64, claimed bool)
	// OnDeadForced is invoked instead of OnEdge when force-dead mode
	// severed the edge to an asserted-dead child. The slot (or root slot)
	// has already been cleared and the child was not claimed. The edge
	// arguments are as for OnEdge.
	OnDeadForced(parent heap.Addr, slot int, root int32, child heap.Addr, oldHeader uint64)
}

// Checks binds one collection's assertion checking to the engine.
type Checks interface {
	// ForceDead reports whether asserted-dead objects must be severed
	// during the trace (the static ReactForce policy for assert-dead).
	ForceDead() bool
	// WantAllClaims asks whether OnEdge must fire for every winning claim
	// even without assertion flags (instance counting).
	WantAllClaims() bool
	// Shard returns worker i's check shard.
	Shard(i int) Shard
	// Merge runs on the collecting goroutine after all workers joined; the
	// resolver reconstructs root-to-object paths.
	Merge(r *Resolver)
}

// WorkerStats is one worker's activity during a single mark.
type WorkerStats struct {
	// Marked is the number of objects whose claim this worker won.
	Marked int
	// Steals is the number of work packets this worker took from the
	// shared pool.
	Steals int
	// DurNs is the worker's wall-clock span, spawn to exit.
	DurNs int64
}

// Result summarizes one parallel mark.
type Result struct {
	RootsScanned  int
	ObjectsMarked int
	PerWorker     []WorkerStats
}

// Engine is a reusable parallel marker over one space. It is not
// goroutine-safe itself: Mark is called from the collecting goroutine,
// which owns the engine between collections.
type Engine struct {
	space   *heap.Space
	workers []*worker

	roots        []Root
	forceDead    bool
	allClaims    bool
	collectMarks bool

	// hungry is set while a worker is parked and the pool is empty. Busy
	// workers load it once per scanned object to decide whether to share.
	hungry atomic.Bool

	mu     sync.Mutex
	cond   sync.Cond
	pool   []heap.Addr // whole packets of shared work
	parked int
	done   bool
	panicV any
}

type worker struct {
	eng   *Engine
	id    int
	shard Shard
	stack []heap.Addr

	// cur is the object being scanned (heap.Nil during the root scan).
	cur     heap.Addr
	visitFn func(slot int, child heap.Addr)

	marked  int
	steals  int
	markBuf []heap.Addr
	dur     time.Duration
}

// NewEngine creates an engine with n workers over the space. n must be > 1
// (the sequential marker is the n == 1 path and lives in the collector).
func NewEngine(space *heap.Space, n int) *Engine {
	e := &Engine{space: space}
	e.cond.L = &e.mu
	for i := 0; i < n; i++ {
		e.workers = append(e.workers, &worker{eng: e, id: i})
	}
	return e
}

// Workers returns the engine's worker count.
func (e *Engine) Workers() int { return len(e.workers) }

// Mark runs one parallel trace from roots. checks may be nil (Base mode or
// infrastructure without hooks); onMark, if non-nil, is replayed serially
// after the workers join (the census callback is not goroutine-safe). A
// panic on any worker aborts the mark and is re-raised on the caller.
//
// The caller must guarantee all mark bits are clear (the engine supports
// only full traces; generational minor collections use the sequential
// marker).
func (e *Engine) Mark(roots []Root, checks Checks, onMark func(heap.Addr)) Result {
	e.roots = roots
	e.forceDead = checks != nil && checks.ForceDead()
	e.allClaims = checks != nil && checks.WantAllClaims()
	e.collectMarks = onMark != nil
	e.pool, e.parked, e.done, e.panicV = e.pool[:0], 0, false, nil
	e.hungry.Store(false)

	for _, w := range e.workers {
		w.marked, w.steals, w.dur = 0, 0, 0
		w.stack, w.markBuf = w.stack[:0], w.markBuf[:0]
		w.shard, w.visitFn = nil, w.visitBase
		if checks != nil {
			w.shard, w.visitFn = checks.Shard(w.id), w.visitChecked
		}
	}

	var wg sync.WaitGroup
	for _, w := range e.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					e.abort(p)
				}
			}()
			start := time.Now()
			e.run(w)
			w.dur = time.Since(start)
		}(w)
	}
	wg.Wait()
	if p := e.panicV; p != nil {
		e.panicV = nil
		panic(p)
	}

	res := Result{RootsScanned: len(roots), PerWorker: make([]WorkerStats, len(e.workers))}
	for i, w := range e.workers {
		res.ObjectsMarked += w.marked
		res.PerWorker[i] = WorkerStats{Marked: w.marked, Steals: w.steals, DurNs: w.dur.Nanoseconds()}
	}
	if onMark != nil {
		for _, w := range e.workers {
			for _, a := range w.markBuf {
				onMark(a)
			}
		}
	}
	if checks != nil {
		checks.Merge(&Resolver{eng: e})
	}
	return res
}

// run is one worker's mark loop: strided root scan, then drain the private
// stack, refilling it from the pool until the mark ends.
func (e *Engine) run(w *worker) {
	n := len(e.workers)
	for i := w.id; i < len(e.roots); i += n {
		e.rootEdge(w, int32(i))
	}
	for {
		for len(w.stack) > 0 {
			top := len(w.stack) - 1
			w.cur = w.stack[top]
			w.stack = w.stack[:top]
			e.space.ForEachRefAtomic(w.cur, w.visitFn)
			if len(w.stack) > packetSize && e.hungry.Load() {
				e.share(w)
			}
		}
		if !e.refill(w) {
			return
		}
	}
}

// share moves one packet from the bottom of w's stack, its oldest and
// likely largest subtrees, into the pool and wakes a parked worker.
func (e *Engine) share(w *worker) {
	e.mu.Lock()
	e.pool = append(e.pool, w.stack[:packetSize]...)
	e.hungry.Store(false)
	e.mu.Unlock()
	e.cond.Signal()
	w.stack = w.stack[:copy(w.stack, w.stack[packetSize:])]
}

// refill gives w's empty stack a packet from the pool, parking until one
// arrives. It returns false when the mark is over: every worker is parked
// with the pool empty, so no work is left anywhere, or a worker panicked.
func (e *Engine) refill(w *worker) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.done {
		if n := len(e.pool); n > 0 {
			w.stack = append(w.stack, e.pool[n-packetSize:]...)
			e.pool = e.pool[:n-packetSize]
			w.steals++
			e.hungry.Store(e.parked > 0 && len(e.pool) == 0)
			return true
		}
		if e.parked == len(e.workers)-1 {
			e.done = true
			e.cond.Broadcast()
			return false
		}
		e.parked++
		e.hungry.Store(true)
		e.cond.Wait()
		e.parked--
	}
	return false
}

// abort records a worker panic and ends the mark: parked workers wake and
// exit, busy ones exit once their stacks drain.
func (e *Engine) abort(p any) {
	e.mu.Lock()
	if e.panicV == nil {
		e.panicV = p
	}
	e.done = true
	e.mu.Unlock()
	e.cond.Broadcast()
}

// rootEdge handles the edge from root index idx into the heap.
func (e *Engine) rootEdge(w *worker, idx int32) {
	r := e.roots[idx]
	a := *r.Slot
	if a == heap.Nil {
		return
	}
	w.cur = heap.Nil
	if w.shard == nil {
		w.visitBase(-1, a)
	} else if w.edge(-1, idx, a) {
		*r.Slot = heap.Nil
	}
}

// edge runs the edge w.cur→child through the checks and claims the child.
// It returns true when force-dead mode severs the edge: the child carries
// the dead assertion, stays unmarked and is reclaimed this cycle, and the
// caller must clear the slot.
func (w *worker) edge(slot int, root int32, child heap.Addr) (sever bool) {
	e := w.eng
	s := e.space
	if e.forceDead {
		if h := s.AtomicHeader(child); heap.HeaderFlags(h)&heap.FlagDead != 0 {
			w.shard.OnDeadForced(w.cur, slot, root, child, h)
			return true
		}
	}
	old, claimed := s.ClaimMark(child)
	flagged := heap.HeaderFlags(old)&heap.AssertFlags != 0
	if claimed {
		if flagged || e.allClaims {
			w.shard.OnEdge(w.cur, slot, root, child, old, true)
		}
		w.claim(child)
	} else if flagged {
		w.shard.OnEdge(w.cur, slot, root, child, old, false)
	}
	return false
}

// visitChecked is the edge visitor when checks are bound.
func (w *worker) visitChecked(slot int, child heap.Addr) {
	if w.edge(slot, -1, child) {
		// The slot belongs to the object this worker is scanning — no
		// other worker writes it.
		w.eng.space.ClearRefSlotUnchecked(w.cur, slot)
	}
}

// visitBase is the Base-mode edge visitor: claim and push, nothing else.
func (w *worker) visitBase(_ int, child heap.Addr) {
	if _, claimed := w.eng.space.ClaimMark(child); claimed {
		w.claim(child)
	}
}

// claim records a winning claim and pushes the child for scanning.
func (w *worker) claim(a heap.Addr) {
	w.marked++
	if w.eng.collectMarks {
		w.markBuf = append(w.markBuf, a)
	}
	w.stack = append(w.stack, a)
}
