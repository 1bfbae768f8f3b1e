package core

import (
	"time"

	"gcassert/internal/collector"
)

// Cost attribution: per-assertion-kind accounting of the work and time the
// engine spends inside a collection. The paper's evaluation only reports
// aggregate overhead ("infrastructure cost is concentrated in GC time");
// attribution breaks a pause down by assertion kind so an operator can see
// *which* checks a cycle paid for.
//
// The discipline mirrors provenance (PR 4): disabled is the default and
// costs exactly one nil-check per rare block — nothing is added to the
// per-edge fast path, which stays untimed even when attribution is on.
// Work counts are exact (deltas of the engine's existing check counters);
// times cover only the flagged slow paths (dead/unshared/ownedby handling,
// the ownership pre-phase, and the PostMark instance sweep), so "checks"
// are precise and "ns" is an honest lower bound that never perturbs the
// loop it measures.

// costState is the per-collection attribution scratch, reset in PreMark.
type costState struct {
	// ns accumulates per-kind slow-path time for the current cycle.
	ns [NumKinds]int64
}

// EnableCostAttribution turns per-kind cost accounting on. Mirroring the
// other observability layers it is enable-only and callable between
// collections.
func (e *Engine) EnableCostAttribution() {
	if e.costs == nil {
		e.costs = &costState{}
	}
}

// CostAttributionEnabled reports whether attribution is on.
func (e *Engine) CostAttributionEnabled() bool { return e.costs != nil }

var _ collector.Accounting = (*Engine)(nil)

// BeginCycle implements collector.Accounting: it snapshots the engine's
// counters, the one baseline both the cycle's kind rows and its cost rows
// are diffed against.
func (e *Engine) BeginCycle() { e.cycleStart = e.stats }

// EndCycle implements collector.Accounting: it stamps the cycle's per-kind
// activity into an engine-owned buffer (so the stamp allocates nothing) and,
// on cycles that ran the hooks with attribution on, fresh cost rows.
func (e *Engine) EndCycle(col *collector.Collection, hooksRan bool) {
	before := &e.cycleStart
	checks := checkDeltas(before, &e.stats)
	for k := range e.kinds {
		e.kinds[k] = collector.KindCount{
			Kind:       Kind(k).String(),
			Checks:     checks[k],
			Violations: e.stats.ViolationsByKind[k] - before.ViolationsByKind[k],
		}
	}
	col.Kinds = e.kinds[:]
	if cs := e.costs; cs != nil && hooksRan {
		col.AssertCost = make([]collector.AssertCost, NumKinds)
		for k := range col.AssertCost {
			col.AssertCost[k] = collector.AssertCost{Kind: Kind(k).String(), Checks: checks[k], Ns: cs.ns[k]}
		}
	}
}

// addSince folds one timed slow-path block into a kind's bucket.
func (cs *costState) addSince(k Kind, t0 time.Time) {
	cs.ns[k] += int64(time.Since(t0))
}

// checkDeltas maps the engine-stats delta between two snapshots to per-kind
// check counts, each in its kind's natural unit: dead = asserted-dead
// objects resolved (reclaimed or caught reachable), instances = tracked-type
// limit comparisons, unshared = re-encounters of unshared-flagged objects,
// ownedby = ownee membership checks in the ownership phase.
// Improper-ownership has no separate check step (it is detected during
// ownedby checking), so its row stays zero.
func checkDeltas(before, after *Stats) [NumKinds]uint64 {
	return [NumKinds]uint64{
		KindDead: (after.DeadVerified + after.DeadViolations) -
			(before.DeadVerified + before.DeadViolations),
		KindInstances: after.InstanceChecks - before.InstanceChecks,
		KindUnshared:  after.UnsharedChecks - before.UnsharedChecks,
		KindOwnedBy:   after.OwneesChecked - before.OwneesChecked,
	}
}
