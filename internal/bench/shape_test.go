package bench

import (
	"testing"

	"gcassert"
	"gcassert/internal/bench/db"
	"gcassert/internal/stats"
)

// TestReproductionShape asserts the paper's headline shape on a small but
// GC-heavy configuration: the assertion infrastructure costs more GC time
// than Base, while full instrumentation keeps total time within a loose
// bound of Base. Thresholds are deliberately generous — this is a shape
// regression test, not a performance benchmark (EXPERIMENTS.md records the
// measured magnitudes).
func TestReproductionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based shape test")
	}
	w := Workload{Name: "shape-db", Heap: 8 << 20, HasAsserts: true,
		New: func(vm *gcassert.Runtime, asserts bool) func(int) {
			cfg := db.DefaultConfig()
			cfg.Asserts = asserts
			d := db.New(vm, cfg)
			return d.RunIteration
		}}
	// Trials as in Compare (one warm-up and one measured iteration per
	// mode), except that a trial's measured iterations run back to back,
	// Base next to WithAssertions, so the paired total-time ratio sees one
	// machine state. Every trial's runtimes then alternate forced full
	// collections: each round yields one paired GC-time ratio per mode, and
	// the GC checks use the median over all rounds of all trials. The effect
	// under test is ~8% of GC time, while single pauses on a shared 2-vCPU
	// host spread ±20% and one runtime's heap placement alone moves its
	// ratio by up to 20%: pairing within a round cancels the host's
	// second-scale contention, the median ignores rounds a burst hit
	// anyway, and pooling trials averages out placement.
	modes := []Mode{Base, WithAssertions, Infra}
	opt := Options{Iterations: 2}
	c := &Comparison{Workload: w.Name, Results: make(map[Mode]*Result)}
	for _, m := range modes {
		c.Results[m] = &Result{Workload: w.Name, Mode: m}
	}
	gcRatios := make(map[Mode][]float64)
	for trial := 0; trial < 5; trial++ {
		vms := make([]*gcassert.Runtime, len(modes))
		runs := make([]func(int), len(modes))
		for i, m := range modes {
			vms[i], runs[i] = warmUp(w, m, opt)
		}
		for i, m := range modes {
			measure(vms[i], runs[i], m, opt, c.Results[m])
		}
		for r := 0; r < 20; r++ {
			base := vms[0].Collect().TotalTime
			for i, m := range modes[1:] {
				gcRatios[m] = append(gcRatios[m], float64(vms[i+1].Collect().TotalTime)/float64(base))
			}
		}
	}

	gcNorm, gcAsserts := stats.Median(gcRatios[Infra]), stats.Median(gcRatios[WithAssertions])
	totalNorm := c.Normalized(WithAssertions, TotalTime)
	t.Logf("GC time vs Base: Infra %.3f, WithAssertions %.3f; WithAssertions total %.3f", gcNorm, gcAsserts, totalNorm)
	if gcNorm < 1.0 {
		t.Errorf("infrastructure GC overhead = %.3f, expected > 1 (paper: ~1.13 geomean)", gcNorm)
	}
	if totalNorm > 1.6 {
		t.Errorf("WithAssertions total = %.3f x Base, expected close to 1 (paper: ~1.01)", totalNorm)
	}
	if gcAsserts <= gcNorm {
		t.Errorf("assertion checking should cost more GC time (%.3f) than bare infrastructure (%.3f)",
			gcAsserts, gcNorm)
	}
	// The checking volume matches the paper's _209_db character: thousands
	// of ownees checked per collection.
	if r := c.Results[WithAssertions]; r.OwneesCheckedPerGC() < 1000 {
		t.Errorf("ownees/GC = %.0f, expected thousands", r.OwneesCheckedPerGC())
	}
}

// TestGenerationalDelaysDetectionShape is the §2.2 claim as a regression
// test: the generational collector takes strictly more collections to
// detect an assert-dead violation than the full-heap collector.
func TestGenerationalDelaysDetectionShape(t *testing.T) {
	detect := func(gen bool) uint64 {
		rep := &gcassert.CollectingReporter{}
		vm := gcassert.New(gcassert.Options{
			HeapBytes:      2 << 20,
			Infrastructure: true,
			Reporter:       rep,
			Generational:   gen,
			MinorRatio:     8,
		})
		node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
		th := vm.NewThread("main")
		fr := th.Push(1)
		leak := th.New(node)
		fr.Set(0, leak)
		vm.AssertDead(leak)
		for rep.Len() == 0 {
			cfr := th.Push(1)
			var head gcassert.Ref
			for i := 0; i < 5000; i++ {
				n := th.New(node)
				vm.Space().SetRef(n, 0, head)
				head = n
				cfr.Set(0, head)
			}
			th.Pop()
		}
		return vm.GCStats().Collections + vm.MinorGCStats().Collections
	}
	full := detect(false)
	gen := detect(true)
	if gen <= full {
		t.Errorf("generational detected after %d collections, full-heap after %d; expected a delay", gen, full)
	}
}
