package collector

import "gcassert/internal/collector/parmark"

// markParallel runs the parallel mark engine. It returns false when
// the cycle cannot run in parallel — hooks that do not implement
// ParallelHooks, or a binding that demands the sequential marker — in which
// case the caller falls back to markInfra/markBase. Mark bits must be clear
// at entry, which Collect guarantees by refusing parallel marking on
// sticky-mark (KeepMarks) collections.
func (c *Collector) markParallel(col *Collection) bool {
	var checks parmark.Checks
	if c.infra && c.hooks != nil {
		ph, ok := c.hooks.(ParallelHooks)
		if !ok {
			col.Fallback = FallbackNonParallelHooks
			return false
		}
		if checks = ph.ParallelChecks(c.workers, c.gcCount); checks == nil {
			col.Fallback = FallbackDecider
			return false
		}
	}
	if c.par == nil || c.par.Workers() != c.workers {
		c.par = parmark.NewEngine(c.space, c.workers)
	}
	c.parRoots = c.parRoots[:0]
	c.roots.Roots(func(r Root) {
		c.parRoots = append(c.parRoots, parmark.Root{Slot: r.Slot, Desc: r.Desc})
	})
	res := c.par.Mark(c.parRoots, checks, c.OnMark)
	col.RootsScanned = res.RootsScanned
	col.ObjectsMarked = res.ObjectsMarked
	col.Workers = c.workers
	col.PerWorker = res.PerWorker
	return true
}
