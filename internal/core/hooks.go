package core

import (
	"fmt"
	"time"

	"gcassert/internal/collector"
	"gcassert/internal/heap"
)

// PreMark implements collector.Hooks: it synchronizes the per-type tables
// with the registry and runs the ownership phase (ownership.go). With cost
// attribution on it also opens the cycle's attribution window and bills the
// whole ownership pre-phase to assert-ownedby.
func (e *Engine) PreMark(c *collector.Collector) {
	e.growTypeTables()
	if cs := e.costs; cs != nil {
		cs.ns = [NumKinds]int64{}
		t0 := time.Now()
		e.ownershipPhase(c)
		cs.addSince(KindOwnedBy, t0)
		return
	}
	e.ownershipPhase(c)
}

// OnEdge implements collector.Hooks. It is the per-edge assertion check the
// paper piggybacks on tracing: one header-flag load per edge, then
//
//   - first encounter (unmarked child): assert-dead check and instance
//     counting;
//   - re-encounter (marked child): assert-unshared check;
//   - either way: an ownee reached outside the ownership phase without its
//     owned flag is an assert-ownedby violation.
func (e *Engine) OnEdge(c *collector.Collector, parent heap.Addr, slot int, child heap.Addr, marked bool) collector.EdgeAction {
	s := e.space
	f := s.Flags(child)
	act := collector.EdgeProceed
	if !marked {
		if f&heap.FlagDead != 0 {
			// Flagged slow path: timed when attribution is on. The unflagged
			// fast path above stays free of any attribution branch.
			if cs := e.costs; cs != nil {
				t0 := time.Now()
				act = e.onDeadReachable(c.GCCount(), child, f, c.CurrentRoot(), c.CurrentPath())
				cs.addSince(KindDead, t0)
			} else {
				act = e.onDeadReachable(c.GCCount(), child, f, c.CurrentRoot(), c.CurrentPath())
			}
			if act == collector.EdgeClear {
				return act
			}
		}
		if len(e.tracked) > 0 {
			if t := s.TypeOf(child); int(t) < len(e.counts) {
				e.counts[t]++
			}
		}
	} else if f&heap.FlagUnshared != 0 {
		e.stats.UnsharedChecks++
		if f&flagLogged == 0 {
			if cs := e.costs; cs != nil {
				t0 := time.Now()
				e.onSharedUnshared(c.GCCount(), child, c.CurrentRoot(), c.CurrentPath())
				cs.addSince(KindUnshared, t0)
			} else {
				e.onSharedUnshared(c.GCCount(), child, c.CurrentRoot(), c.CurrentPath())
			}
		}
	}
	if f&heap.FlagOwnee != 0 && f&heap.FlagOwned == 0 && !e.inOwnership {
		// Reachable, but not through the asserted owner.
		if cs := e.costs; cs != nil {
			t0 := time.Now()
			e.report(e.edgeViolation(KindOwnedBy, c.GCCount(), child, c.CurrentRoot(), c.CurrentPath()))
			cs.addSince(KindOwnedBy, t0)
		} else {
			e.report(e.edgeViolation(KindOwnedBy, c.GCCount(), child, c.CurrentRoot(), c.CurrentPath()))
		}
		// Suppress duplicate reports for this ownee within this cycle; the
		// owned flags are reset in PostMark.
		s.SetFlag(child, heap.FlagOwned)
	}
	return act
}

// onDeadReachable handles an asserted-dead object found reachable. ancestors
// is the current trace path (excluding the object itself).
func (e *Engine) onDeadReachable(gc uint64, obj heap.Addr, f heap.Flag, root string, ancestors []heap.Addr) collector.EdgeAction {
	if f&flagLogged != 0 {
		// Already reported this cycle. In force mode, keep severing every
		// incoming edge so the object really is reclaimed this collection.
		if e.policy[KindDead] == ReactForce {
			return collector.EdgeClear
		}
		return collector.EdgeProceed
	}
	e.markLogged(obj)
	act := e.report(e.edgeViolation(KindDead, gc, obj, root, ancestors))
	if act != collector.EdgeClear {
		// Log mode: the assertion is one-shot; a reported object is not
		// re-reported at later collections.
		e.space.ClearFlag(obj, heap.FlagDead)
	}
	return act
}

// onSharedUnshared handles a second encounter of an asserted-unshared
// object. As the paper notes (§2.7), only the second path is available.
func (e *Engine) onSharedUnshared(gc uint64, obj heap.Addr, root string, ancestors []heap.Addr) {
	e.markLogged(obj)
	e.report(e.edgeViolation(KindUnshared, gc, obj, root, ancestors))
}

// edgeViolation builds the report of a per-edge violation of kind k on obj,
// reached from root through ancestors, and counts it in the kind's stats.
// Both markers report through it, so each kind's counter and message are
// defined once.
func (e *Engine) edgeViolation(k Kind, gc uint64, obj heap.Addr, root string, ancestors []heap.Addr) *Violation {
	s := e.space
	v := &Violation{
		Kind:     k,
		GC:       gc,
		Object:   obj,
		TypeName: s.TypeName(obj),
		Site:     s.SiteDesc(obj),
		Root:     root,
		Path:     BuildPath(s, ancestors, obj),
	}
	switch k {
	case KindDead:
		e.stats.DeadViolations++
	case KindUnshared:
		e.stats.UnsharedViolations++
		v.Message = "second path shown; the first path was traced earlier"
	case KindOwnedBy:
		e.stats.OwnedViolations++
		v.Message = "owner unknown"
		if owner := e.owneeOwner[obj]; owner != heap.Nil {
			v.Message = fmt.Sprintf("asserted owner is %s@%#x, which does not reach the object", s.TypeName(owner), uint32(owner))
		}
	}
	return v
}

// WantAllFirstMarks implements collector.Hooks: the engine needs to see
// every first-marked object only while instance counting is active.
func (e *Engine) WantAllFirstMarks() bool { return len(e.tracked) > 0 }

// PostMark implements collector.Hooks: volume-assertion checks and weak
// pruning of every registration table, run after marking and before sweep.
func (e *Engine) PostMark(c *collector.Collector) {
	s := e.space

	// assert-instances: compare per-type counts against limits (§2.4.1).
	// The comparison loop is the kind's entire cost (per-edge counting rides
	// the untimed mark fast path), so it is billed wholesale.
	var instT0 time.Time
	if e.costs != nil {
		instT0 = time.Now()
	}
	for _, t := range e.tracked {
		e.stats.InstanceChecks++
		if e.counts[t] > e.limits[t] {
			e.stats.InstanceViolations++
			e.report(&Violation{
				Kind:     KindInstances,
				GC:       c.GCCount(),
				TypeName: s.Registry().Name(t),
				Message:  fmt.Sprintf("%d instances live, limit %d", e.counts[t], e.limits[t]),
			})
		}
	}
	if cs := e.costs; cs != nil {
		cs.addSince(KindInstances, instT0)
	}
	copy(e.lastCounts, e.counts)
	for i := range e.counts {
		e.counts[i] = 0
	}

	e.PruneWeak()

	// Reset per-cycle duplicate suppression.
	for _, a := range e.logged {
		if s.Marked(a) {
			s.ClearFlag(a, flagLogged)
		}
	}
	e.logged = e.logged[:0]
}

// PruneWeak drops registrations for objects whose mark bit is clear. It must
// run between a completed mark phase and the sweep: registrations are weak
// references, and leaving a stale address in a table would let a recycled
// cell inherit someone else's assertion. The normal cycle calls it from
// PostMark; generational minor collections (which skip the hooks) call it
// through the collector's PreSweep callback.
func (e *Engine) PruneWeak() {
	s := e.space

	// Region queues: entries that died inside the region are exactly what
	// the region asserts, so they are simply dropped.
	for _, r := range e.regions {
		keep := r.queue[:0]
		for _, a := range r.queue {
			if s.Marked(a) {
				keep = append(keep, a)
			}
		}
		r.queue = keep
	}

	// Ownership registry: drop dead ownees; dissolve the relation entirely
	// when the owner itself is dying ("we must remove each unreachable
	// ownee after a GC", §3.1.2). Clear the per-cycle owned flags of
	// survivors.
	liveOwners := e.owners[:0]
	for i := range e.owners {
		rec := e.owners[i]
		if !s.Marked(rec.owner) {
			for _, oe := range rec.ownees {
				delete(e.owneeOwner, oe)
				if s.Marked(oe) {
					s.ClearFlag(oe, heap.FlagOwnee|heap.FlagOwned)
				}
			}
			continue
		}
		keep := rec.ownees[:0]
		for _, oe := range rec.ownees {
			if s.Marked(oe) {
				s.ClearFlag(oe, heap.FlagOwned)
				keep = append(keep, oe)
			} else {
				delete(e.owneeOwner, oe)
			}
		}
		rec.ownees = keep
		if len(rec.ownees) == 0 {
			s.ClearFlag(rec.owner, heap.FlagOwner)
			continue
		}
		liveOwners = append(liveOwners, rec)
	}
	e.owners = liveOwners
	for k := range e.ownerIdx {
		delete(e.ownerIdx, k)
	}
	for i := range e.owners {
		e.ownerIdx[e.owners[i].owner] = i
	}
}

// removeOwnee deletes ownee from owner's record (used when an ownee is
// re-asserted with a different owner).
func (e *Engine) removeOwnee(owner, ownee heap.Addr) {
	idx, ok := e.ownerIdx[owner]
	if !ok {
		return
	}
	rec := &e.owners[idx]
	for i, oe := range rec.ownees {
		if oe == ownee {
			rec.ownees = append(rec.ownees[:i], rec.ownees[i+1:]...)
			break
		}
	}
	delete(e.owneeOwner, ownee)
	if e.space.Contains(ownee) {
		e.space.ClearFlag(ownee, heap.FlagOwnee|heap.FlagOwned)
	}
}
