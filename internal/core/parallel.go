package core

import (
	"sort"
	"time"

	"gcassert/internal/collector"
	"gcassert/internal/collector/parmark"
	"gcassert/internal/heap"
)

var _ collector.ParallelHooks = (*Engine)(nil)

// ParallelChecks implements collector.ParallelHooks: it binds this engine's
// per-edge checks to a parallel mark as one shard per worker. Shards record
// pending violations and count instances locally — no locks on the edge
// path; cross-worker once-per-object elections (duplicate suppression) use
// single atomic flag operations on the object's own header. Merge, on the
// collecting goroutine after the workers join, folds the shards into the
// engine and reports the pending violations with paths the resolver
// reconstructs.
//
// It returns nil — demanding the sequential marker — when a programmatic
// decider is installed: the decider's reaction (notably ReactForce) must
// take effect at edge time, which only the sequential trace can do.
func (e *Engine) ParallelChecks(workers int, gc uint64) parmark.Checks {
	if e.decider != nil {
		return nil
	}
	e.growTypeTables()
	pc := &parChecks{
		eng:       e,
		gc:        gc,
		forceDead: e.policy[KindDead] == ReactForce,
		allClaims: len(e.tracked) > 0,
		shards:    make([]*parShard, workers),
	}
	for i := range pc.shards {
		sh := &parShard{eng: e, timed: e.costs != nil}
		if pc.allClaims {
			sh.counts = make([]int64, len(e.counts))
		}
		pc.shards[i] = sh
	}
	return pc
}

type parChecks struct {
	eng       *Engine
	gc        uint64
	forceDead bool
	allClaims bool
	shards    []*parShard
}

func (pc *parChecks) ForceDead() bool           { return pc.forceDead }
func (pc *parChecks) WantAllClaims() bool       { return pc.allClaims }
func (pc *parChecks) Shard(i int) parmark.Shard { return pc.shards[i] }

// parPending is one violation detected during the parallel trace, reported
// at merge time. The edge context (parent, slot, root) is enough for the
// resolver to rebuild the full path.
type parPending struct {
	kind   Kind
	obj    heap.Addr
	parent heap.Addr
	slot   int32
	root   int32
	forced bool
}

// parShard is one worker's check state. Only its owning worker touches it
// during the trace; Merge reads it after the join. With cost attribution on
// (timed), each shard accumulates its own per-kind slow-path time — no
// cross-worker sharing on the edge path — and Merge folds the shards into
// the engine's cost state deterministically.
type parShard struct {
	eng            *Engine
	counts         []int64
	unsharedChecks uint64
	pending        []parPending
	logged         []heap.Addr
	timed          bool
	ns             [NumKinds]int64
}

// OnEdge implements parmark.Shard, mirroring the sequential Engine.OnEdge
// case for case. oldHeader is the child's pre-claim header, so flag tests
// and the TypeID ride on the claim's one atomic access, exactly as the
// sequential checks ride on the tracer's one header load.
func (sh *parShard) OnEdge(parent heap.Addr, slot int, root int32, child heap.Addr, oldHeader uint64, claimed bool) {
	s := sh.eng.space
	f := heap.HeaderFlags(oldHeader)
	if claimed {
		if f&heap.FlagDead != 0 {
			// First (and only) claim of an asserted-dead object: elect a
			// unique reporter via the logged flag, and clear the assertion
			// one-shot as the sequential log path does. Timed as the kind's
			// slow path when attribution is on (the unflagged claim path
			// carries no attribution branch).
			var t0 time.Time
			if sh.timed {
				t0 = time.Now()
			}
			if s.OrFlags(child, flagLogged)&flagLogged == 0 {
				sh.logged = append(sh.logged, child)
				sh.pending = append(sh.pending, parPending{kind: KindDead, obj: child, parent: parent, slot: int32(slot), root: root})
				s.AndNotFlags(child, heap.FlagDead)
			}
			if sh.timed {
				sh.ns[KindDead] += int64(time.Since(t0))
			}
		}
		if sh.counts != nil {
			if t := heap.HeaderTypeID(oldHeader); int(t) < len(sh.counts) {
				sh.counts[t]++
			}
		}
	} else if f&heap.FlagUnshared != 0 {
		sh.unsharedChecks++
		if f&flagLogged == 0 {
			var t0 time.Time
			if sh.timed {
				t0 = time.Now()
			}
			if s.OrFlags(child, flagLogged)&flagLogged == 0 {
				sh.logged = append(sh.logged, child)
				sh.pending = append(sh.pending, parPending{kind: KindUnshared, obj: child, parent: parent, slot: int32(slot), root: root})
			}
			if sh.timed {
				sh.ns[KindUnshared] += int64(time.Since(t0))
			}
		}
	}
	if f&heap.FlagOwnee != 0 && f&heap.FlagOwned == 0 {
		// An ownee reached by the normal scan without the ownership phase
		// having marked it owned. The owned flag doubles as the per-cycle
		// duplicate suppressor (as in the sequential path), and the atomic
		// Or elects the reporting worker.
		var t0 time.Time
		if sh.timed {
			t0 = time.Now()
		}
		if s.OrFlags(child, heap.FlagOwned)&heap.FlagOwned == 0 {
			sh.pending = append(sh.pending, parPending{kind: KindOwnedBy, obj: child, parent: parent, slot: int32(slot), root: root})
		}
		if sh.timed {
			sh.ns[KindOwnedBy] += int64(time.Since(t0))
		}
	}
}

// OnDeadForced implements parmark.Shard: the engine severed an edge to an
// asserted-dead child (static ReactForce). Every incoming edge is severed,
// but only the electing worker reports.
func (sh *parShard) OnDeadForced(parent heap.Addr, slot int, root int32, child heap.Addr, oldHeader uint64) {
	var t0 time.Time
	if sh.timed {
		t0 = time.Now()
	}
	if sh.eng.space.OrFlags(child, flagLogged)&flagLogged == 0 {
		sh.logged = append(sh.logged, child)
		sh.pending = append(sh.pending, parPending{kind: KindDead, obj: child, parent: parent, slot: int32(slot), root: root, forced: true})
	}
	if sh.timed {
		sh.ns[KindDead] += int64(time.Since(t0))
	}
}

// Merge implements parmark.Checks: fold shard state into the engine and
// report the pending violations. Reports are ordered by (kind, object
// address) so the output is deterministic regardless of how the workers
// interleaved; the sequential marker reports in DFS-encounter order, so
// per-cycle *sets* of violations match while ordering may differ.
func (pc *parChecks) Merge(r *parmark.Resolver) {
	e := pc.eng
	var pend []parPending
	for _, sh := range pc.shards {
		if sh.counts != nil {
			for t, n := range sh.counts {
				if n != 0 {
					e.counts[t] += n
				}
			}
		}
		e.stats.UnsharedChecks += sh.unsharedChecks
		e.logged = append(e.logged, sh.logged...)
		pend = append(pend, sh.pending...)
		if sh.timed && e.costs != nil {
			// Shard fold order is fixed (shard index), so the merged per-kind
			// times are deterministic for a given set of shard measurements.
			for k := 0; k < NumKinds; k++ {
				e.costs.ns[k] += sh.ns[k]
			}
		}
	}
	sort.SliceStable(pend, func(i, j int) bool {
		if pend[i].kind != pend[j].kind {
			return pend[i].kind < pend[j].kind
		}
		return pend[i].obj < pend[j].obj
	})
	for i := range pend {
		if cs := e.costs; cs != nil {
			// Path reconstruction and reporting happen here rather than at
			// edge time; bill them to the violation's kind so sequential and
			// parallel cycles attribute the same work.
			t0 := time.Now()
			e.reportParallel(&pend[i], pc.gc, r)
			cs.addSince(pend[i].kind, t0)
		} else {
			e.reportParallel(&pend[i], pc.gc, r)
		}
	}
}

// reportParallel rebuilds one pending violation's path and dispatches it
// through the normal report machinery (so policies, reporters, and stats
// behave exactly as in the sequential path; ReactHalt panics here, on the
// collecting goroutine).
func (e *Engine) reportParallel(p *parPending, gc uint64, r *parmark.Resolver) {
	s := e.space
	root, ancestors := r.EdgePath(p.parent, p.root)
	v := e.edgeViolation(p.kind, gc, p.obj, root, ancestors)
	if p.forced && len(v.Path) >= 2 && p.slot >= 0 {
		// The severing already cleared the slot, so BuildPath's generic
		// field scan cannot name the final hop; recover it from the
		// recorded slot index.
		if step := &v.Path[len(v.Path)-2]; step.Field == "" {
			step.Field = s.Registry().Info(s.TypeOf(p.parent)).FieldName(int(p.slot))
		}
	}
	e.report(v)
}
