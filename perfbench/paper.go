package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"gcassert"
	"gcassert/internal/bench/db"
	"gcassert/internal/bench/jbb"
	"gcassert/internal/collector"
	"gcassert/internal/stats"
)

// paperWorkload is one of the paper's programs, run in-process as a closed
// loop: one mutator runs iterations back to back.
type paperWorkload struct {
	heapMiB int
	workers int
	// ops is the number of transactions or operations in one iteration.
	ops int
	// bind builds the program on vm.
	bind func(vm *gcassert.Runtime, seed uint64) func(iter int)
}

var paperJBB = paperWorkload{
	heapMiB: 4,
	ops:     jbb.DefaultConfig().Transactions,
	bind: func(vm *gcassert.Runtime, seed uint64) func(int) {
		cfg := jbb.DefaultConfig()
		cfg.Asserts = true
		cfg.Seed = seed
		return jbb.New(vm, cfg).RunIteration
	},
}

// paperDB runs _209_db in the paper's base configuration, assertions off.
// With its ownership assertions on, the ownership phase marks the owned
// database entries before the normal scan, which then finds only a few
// objects per collection to mark; without them the two mark workers scan
// the whole live set, so collector/parmark does the collection's work.
var paperDB = paperWorkload{
	heapMiB: 8,
	workers: 2,
	ops:     db.DefaultConfig().Ops,
	bind: func(vm *gcassert.Runtime, seed uint64) func(int) {
		cfg := db.DefaultConfig()
		cfg.Seed = seed
		return db.New(vm, cfg).RunIteration
	},
}

// gcObserver is the benchmark's collector.Observer. It keeps every
// collection record of the current window and sums the phase durations the
// collector reports; in a traced run it also turns the lifecycle callbacks
// into gc and phase spans under the current iteration span.
type gcObserver struct {
	cols    []observed
	phaseNs [3]time.Duration

	log        *spanLog // nil when untraced
	trace      int64
	iterSpan   int
	gcSpan     int
	phaseStart int64
}

var _ collector.Observer = (*gcObserver)(nil)

// observed is one collection record and whether it ran in a traced
// iteration.
type observed struct {
	collector.Collection
	traced bool
}

// GCBegin implements collector.Observer.
func (o *gcObserver) GCBegin(uint64, collector.Reason) {
	if o.log != nil {
		o.gcSpan = o.log.add(o.trace, o.iterSpan, "gc", time.Now().UnixNano(), 0)
	}
}

// PhaseBegin implements collector.Observer.
func (o *gcObserver) PhaseBegin(collector.Phase) {
	if o.log != nil {
		o.phaseStart = time.Now().UnixNano()
	}
}

// PhaseEnd implements collector.Observer.
func (o *gcObserver) PhaseEnd(p collector.Phase, d time.Duration) {
	o.phaseNs[p] += d
	if o.log != nil {
		o.log.add(o.trace, o.gcSpan, p.String(), o.phaseStart, o.phaseStart+int64(d))
	}
}

// GCEnd implements collector.Observer.
func (o *gcObserver) GCEnd(col *collector.Collection) {
	c := observed{Collection: *col, traced: o.log != nil}
	c.PerWorker = append([]collector.WorkerStats(nil), col.PerWorker...)
	o.cols = append(o.cols, c)
	if o.log != nil {
		o.log.spans[o.gcSpan].End = time.Now().UnixNano()
	}
}

// paperInstance is one runtime with the program bound to it.
type paperInstance struct {
	vm   *gcassert.Runtime
	run  func(int)
	obs  *gcObserver
	iter int
}

func (w paperWorkload) start(seed uint64) *paperInstance {
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      w.heapMiB << 20,
		Infrastructure: true,
		Workers:        w.workers,
	})
	obs := &gcObserver{}
	if c := vm.Collector(); c.Observer != nil {
		c.Observer = collector.TeeObserver{c.Observer, obs}
	} else {
		c.Observer = obs
	}
	return &paperInstance{vm: vm, run: w.bind(vm, seed), obs: obs}
}

func (in *paperInstance) step() {
	in.run(in.iter)
	in.iter++
}

// exactCounts are the work counts that must repeat exactly for a seed.
type exactCounts struct {
	Collections        uint64
	ObjectsMarked      uint64
	AllocObjects       uint64
	DeadAsserted       uint64
	OwnedPairsAsserted uint64
	OwneesChecked      uint64
	Violations         uint64
	Fallbacks          int
}

func (in *paperInstance) counts() exactCounts {
	gc, as, hs := in.vm.GCStats(), in.vm.AssertionStats(), in.vm.HeapStats()
	c := exactCounts{
		Collections:        gc.Collections,
		ObjectsMarked:      gc.ObjectsMarked,
		AllocObjects:       hs.ObjectsAllocated,
		DeadAsserted:       as.DeadAsserted,
		OwnedPairsAsserted: as.OwnedPairsAsserted,
		OwneesChecked:      as.OwneesChecked,
		Violations:         as.Violations,
	}
	for _, col := range in.obs.cols {
		if col.Fallback != "" {
			c.Fallbacks++
		}
	}
	return c
}

// iterRecord is one measured iteration.
type iterRecord struct {
	wall, gc   time.Duration
	violations uint64
	traced     bool
}

// runPaper runs a paper workload: set-up (repeated, each with the exact-count
// prefix), then iterations until the measuring time is spent. A traced run
// traces every other iteration; the untraced ones give the tracing
// overhead, measured under the same machine conditions.
func runPaper(w paperWorkload, p params) (*report, error) {
	rep := newReport()
	seed := mixSeed(p.seed)

	var setups []float64
	var ref exactCounts
	var in *paperInstance
	for i := 0; i < setupRuns; i++ {
		if in != nil {
			in = nil
			// Every set-up starts with the previous one's memory
			// returned to the OS, as after an idle period: reusing it
			// instead makes the time depend on what the background
			// scavenger happened to return.
			debug.FreeOSMemory()
		}
		// Set-up is the runtime and the program with its initial data;
		// the prefix iterations after it are work, not set-up.
		t0 := time.Now()
		in = w.start(seed)
		setups = append(setups, time.Since(t0).Seconds())
		// The first set-ups and the last, whose instance is measured,
		// run the prefix, whose counts must repeat exactly.
		if i >= exactRuns && i < setupRuns-1 {
			continue
		}
		for k := 0; k < prefixIterations; k++ {
			in.step()
		}
		c := in.counts()
		if i == 0 {
			ref = c
			continue
		}
		rep.check(c == ref, "set-up %d exact counts %+v differ from set-up 0 %+v", i, c, ref)
	}
	rep.check(ref.Violations == 0, "prefix reported %d assertion violations on the repaired program", ref.Violations)
	rep.note("exact counts over the %d-iteration prefix: %+v", prefixIterations, ref)

	in.obs.cols = in.obs.cols[:0]
	gcBase := in.vm.GCStats()
	obsBase := in.obs.phaseNs
	violBase := in.vm.AssertionStats().Violations
	var ms0, ms1 runtime.MemStats
	var iters []iterRecord
	var log spanLog

	runtime.ReadMemStats(&ms0)
	deadline := time.Now().Add(p.dur)
	for time.Now().Before(deadline) || len(iters) < minIterations {
		traced := p.traced && len(iters)%2 == 1
		in.obs.log = nil
		if traced {
			in.obs.log = &log
		}
		gcBefore := in.vm.GCStats().TotalGCTime
		violBefore := in.vm.AssertionStats().Violations
		t0 := time.Now()
		if traced {
			in.obs.trace = int64(in.iter)
			in.obs.iterSpan = log.add(in.obs.trace, -1, "iteration", t0.UnixNano(), 0)
		}
		in.step()
		wall := time.Since(t0)
		if traced {
			log.spans[in.obs.iterSpan].End = t0.Add(wall).UnixNano()
		}
		iters = append(iters, iterRecord{
			wall:       wall,
			gc:         in.vm.GCStats().TotalGCTime - gcBefore,
			violations: in.vm.AssertionStats().Violations - violBefore,
			traced:     traced,
		})
	}
	runtime.ReadMemStats(&ms1)
	in.obs.log = nil

	// Output checks: no violations, and the Observer's phase durations
	// reconcile exactly with the collector's cumulative statistics.
	gcNow := in.vm.GCStats()
	viol := in.vm.AssertionStats().Violations - violBase
	rep.check(viol == 0, "measured iterations reported %d assertion violations", viol)
	phaseGot := [3]time.Duration{
		in.obs.phaseNs[0] - obsBase[0], in.obs.phaseNs[1] - obsBase[1], in.obs.phaseNs[2] - obsBase[2],
	}
	phaseWant := [3]time.Duration{
		gcNow.OwnershipTime - gcBase.OwnershipTime,
		gcNow.MarkTime - gcBase.MarkTime,
		gcNow.SweepTime - gcBase.SweepTime,
	}
	rep.check(phaseGot == phaseWant, "observer phase sums %v differ from GCStats deltas %v", phaseGot, phaseWant)
	rep.check(uint64(len(in.obs.cols)) == gcNow.Collections-gcBase.Collections,
		"observer saw %d collections, GCStats counted %d", len(in.obs.cols), gcNow.Collections-gcBase.Collections)
	if w.workers > 1 {
		// The workload exists to run the parallel marker: every
		// collection must have marked with all its workers.
		var sequential int
		for _, c := range in.obs.cols {
			if c.Workers != w.workers || c.Fallback != "" {
				sequential++
			}
		}
		rep.check(sequential == 0, "%d of %d collections did not mark with %d workers", sequential, len(in.obs.cols), w.workers)
	}

	var failedIters int64
	var walls, tracedWalls, mutator []float64
	var wallSum, gcSum time.Duration
	for _, it := range iters {
		if it.violations > 0 {
			failedIters++
		}
		if !it.traced {
			walls = append(walls, it.wall.Seconds())
			continue
		}
		tracedWalls = append(tracedWalls, it.wall.Seconds())
		mutator = append(mutator, ms(it.wall-it.gc))
		wallSum += it.wall
		gcSum += it.gc
	}
	rep.attempted = int64(len(iters))
	rep.failed = failedIters

	// End-to-end pauses come from the untraced iterations.
	var pauses []float64
	var tcols []observed
	for _, c := range in.obs.cols {
		if c.traced {
			tcols = append(tcols, c)
			continue
		}
		pauses = append(pauses, ms(c.TotalTime))
	}

	rep.e2e["setup_s"] = stats.Median(setups)
	rep.e2e["throughput_ops_s"] = float64(w.ops) / stats.Mean(walls)
	rep.e2e["gc_pause_mean_ms"] = stats.Mean(pauses)
	rep.e2e["gc_pause_p90_ms"] = stats.Quantile(pauses, 0.90)
	rep.e2e["rss_peak_mib"] = peakRSSMiB()
	rep.e2e["success_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
	rep.note("iterations: %d measured (%d ops each), %d collections; pauses over %d samples: mean %.3f ms, p50 %.3f ms, p90 %.3f ms",
		len(iters), w.ops, len(in.obs.cols), len(pauses), rep.e2e["gc_pause_mean_ms"], stats.Quantile(pauses, 0.50), rep.e2e["gc_pause_p90_ms"])

	if !p.traced {
		return rep, nil
	}
	var mark, sweep, own time.Duration
	var marked, steals int
	for _, c := range tcols {
		mark += c.MarkTime
		sweep += c.SweepTime
		own += c.OwnershipTime
		marked += c.ObjectsMarked
		for _, ws := range c.PerWorker {
			steals += ws.Steals
		}
	}
	nt := float64(len(tracedWalls))
	allOps := float64(len(iters) * w.ops)
	prefixOps := float64(prefixIterations * w.ops)
	ncols := float64(len(tcols))
	L := rep.layer
	L["mutator.ms_per_iter"] = stats.Median(mutator)
	L["heap.alloc_objects_per_op"] = float64(ref.AllocObjects) / prefixOps
	L["collector.collections_per_op"] = float64(ref.Collections) / prefixOps
	L["collector.gc_share"] = ratio(float64(gcSum), float64(wallSum))
	L["collector.mark_ns_per_object"] = ratio(float64(mark), float64(marked))
	L["collector.objects_marked_per_gc"] = ratio(float64(ref.ObjectsMarked), float64(ref.Collections))
	L["collector.sweep_us_per_gc"] = ratio(us(sweep), ncols)
	L["parmark.steals_per_gc"] = ratio(float64(steals), ncols)
	L["parmark.fallbacks"] = float64(ref.Fallbacks)
	L["core.ownership_us_per_gc"] = ratio(us(own), ncols)
	L["core.ownees_checked_per_gc"] = ratio(float64(ref.OwneesChecked), float64(ref.Collections))
	L["core.dead_asserted"] = float64(ref.DeadAsserted)
	L["core.violations"] = float64(ref.Violations)
	L["go.alloc_bytes_per_op"] = ratio(float64(ms1.TotalAlloc-ms0.TotalAlloc), allOps)
	L["go.gc_cycles_per_op"] = ratio(float64(ms1.NumGC-ms0.NumGC), allOps)
	self := log.selfTimes()
	for _, name := range []string{"iteration", "gc", "ownership", "mark", "sweep"} {
		L["self."+name+"_us"] = ratio(float64(self[name])/1e3, nt)
	}
	L["trace.overhead_pct"] = (stats.Median(tracedWalls)/stats.Median(walls) - 1) * 100
	L["trace.spans"] = float64(len(log.spans))
	rep.note("traced: %d iterations, %d collections, %d spans; untraced: %d iterations",
		len(tracedWalls), len(tcols), len(log.spans), len(walls))
	if err := log.writeJSONL(p.spansPath); err != nil {
		return nil, err
	}
	rep.note("spans written to %s", p.spansPath)
	return rep, nil
}

// prefixIterations is how many iterations each set-up runs: the warm-up,
// and the fixed amount of work whose exact counts must repeat for a seed.
const prefixIterations = 2

// exactRuns is how many set-ups, besides the last, run the prefix and
// compare its exact counts.
const exactRuns = 2

// minIterations keeps a very short run meaningful: a traced run gets at
// least one untraced and one traced iteration.
const minIterations = 3
