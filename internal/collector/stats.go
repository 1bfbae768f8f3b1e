package collector

import (
	"fmt"
	"time"

	"gcassert/internal/collector/parmark"
)

// WorkerStats is one parallel mark worker's activity in a collection.
type WorkerStats = parmark.WorkerStats

// PhaseSpan is one timed phase of a collection, with its exact wall-clock
// window. The duration is the collector's own measurement, so per-phase sums
// over a trace equal the cumulative Stats. The JSON tags are the phase row of
// the telemetry event stream and flight bundles.
type PhaseSpan struct {
	// Phase is the phase label: "ownership", "mark" or "sweep".
	Phase string `json:"phase"`
	// StartUnixNs is the phase's wall-clock start, Unix nanoseconds.
	StartUnixNs int64 `json:"start_unix_ns"`
	// DurNs is the phase duration in nanoseconds.
	DurNs int64 `json:"dur_ns"`
}

// KindCount is one assertion kind's activity within a collection: checks
// performed, in the kind's natural unit, and violations reported.
type KindCount struct {
	// Kind is the assertion kind's stable label (e.g. "assert-dead").
	Kind       string `json:"kind"`
	Checks     uint64 `json:"checks"`
	Violations uint64 `json:"violations"`
}

// AssertCost attributes one assertion kind's share of a collection: how many
// checks the cycle performed for the kind and how long the kind's rare-path
// handling took. Work counts are exact (they are deltas of the engine's
// check counters); times cover the flagged slow paths only — the per-edge
// fast path is deliberately untimed so attribution never perturbs the mark
// loop it measures.
type AssertCost struct {
	// Kind is the assertion kind's stable label ("assert-dead",
	// "assert-instances", "assert-unshared", "assert-ownedby",
	// "improper-ownership").
	Kind string `json:"kind"`
	// Checks is the number of checks performed for the kind this cycle, in
	// the kind's natural unit (dead results, instance-count increments,
	// unshared re-encounters, ownees checked).
	Checks uint64 `json:"checks"`
	// Ns is the time spent in the kind's handling this cycle, in
	// nanoseconds. Zero for kinds whose work is folded into the untimed
	// per-edge fast path.
	Ns int64 `json:"ns"`
}

// Accounting is the assertion engine's per-collection ledger. The collector
// calls BeginCycle at the top of every collection and EndCycle after the
// sweep (dead-verification counts accrue in the engine's free hook while the
// sweep runs), so each record's per-kind rows diff one snapshot. Generational
// minor collections run no hooks but still call both: their sweep verifies
// asserted-dead objects too.
type Accounting interface {
	// BeginCycle snapshots the counters the cycle's rows are diffed against.
	BeginCycle()
	// EndCycle stamps col.Kinds and, when hooksRan and cost attribution is
	// on, col.AssertCost.
	EndCycle(col *Collection, hooksRan bool)
}

// Trigger explains why a collection ran, for operators: the mechanical
// Reason plus the heap pressure behind it and the mutator that applied it.
type Trigger struct {
	// Why is a one-line human-readable explanation, e.g.
	// "heap exhausted at 92% occupancy (alloc rate 1.2e+07 words/s)".
	Why string
	// OccupancyPct is the heap occupancy (live words / capacity words × 100)
	// observed when the collection was triggered.
	OccupancyPct float64
	// AllocRateWps is the allocation-rate EWMA in words/second at trigger
	// time (0 until the first interval completes).
	AllocRateWps float64
	// ByThread names the dominant allocating thread since the previous
	// collection ("main", ...); empty when nothing allocated.
	ByThread string
	// ByThreadWords is that thread's allocation volume, in words, since the
	// previous collection.
	ByThreadWords uint64
	// BySite names the dominant allocating site of the window (provenance
	// required; empty otherwise).
	BySite string
}

// Collection records one collection cycle.
type Collection struct {
	// Seq is the collection's sequence number (0-based).
	Seq uint64
	// Reason records why the collection ran (ReasonAllocFailure,
	// ReasonForced, ...).
	Reason Reason
	// StartUnixNs is the pause's wall-clock start, Unix nanoseconds.
	StartUnixNs int64
	// Phases holds the timed phases in cycle order (ownership only when it
	// ran). It is backed by a collector-owned buffer that the next
	// collection overwrites: copy it to keep it.
	Phases []PhaseSpan
	// OwnershipTime is the time spent in the assertion engine's ownership
	// pre-phase (zero in Base mode or with no ownership assertions).
	OwnershipTime time.Duration
	// MarkTime is the time spent in the root scan and transitive mark.
	MarkTime time.Duration
	// SweepTime is the time spent sweeping.
	SweepTime time.Duration
	// TotalTime is the full stop-the-world pause.
	TotalTime time.Duration
	// RootsScanned is the number of root slots examined.
	RootsScanned int
	// ObjectsMarked is the number of objects marked during the normal scan.
	ObjectsMarked int
	// ObjectsFreed and WordsFreed summarize the sweep.
	ObjectsFreed int
	WordsFreed   int
	// ObjectsLive is the number of survivors after the sweep.
	ObjectsLive int
	// Workers is the number of mark-phase workers used (1 = the sequential
	// reference marker).
	Workers int
	// PerWorker is per-worker mark activity; nil unless the cycle marked in
	// parallel.
	PerWorker []WorkerStats
	// Fallback, on a cycle where the configured worker count exceeded one but
	// the mark ran sequentially anyway, names why (one of the Fallback*
	// constants). Empty when the cycle marked in parallel or when only one
	// worker was configured to begin with.
	Fallback string
	// Kinds is per-assertion-kind activity, one row per kind in kind order;
	// nil without an assertion engine. Like Phases it is backed by a buffer
	// the next collection overwrites.
	Kinds []KindCount
	// AssertCost attributes the cycle's assertion work per kind, one row per
	// kind in kind order; nil unless the engine has cost attribution enabled
	// (Options.CostAttribution) and the cycle ran the assertion hooks.
	AssertCost []AssertCost
	// Trigger explains why the collection ran; zero unless the runtime
	// installed a trigger explainer (Collector.ExplainTrigger).
	Trigger Trigger
	// Request is the request tag active when the collection began (set via
	// Collector.SetRequestTag by the tracing layer; empty otherwise). It is
	// captured at the top of Collect — the moment the pause starts — so it
	// names the request the pause actually interrupted, a property that
	// stays correct when marking goes concurrent.
	Request string
}

// Reasons a cycle configured for parallel marking fell back to the
// sequential marker. Telemetry exports them as the reason label of
// gcassert_gc_mark_fallback_total.
const (
	// FallbackKeepMarks: sticky-mark (generational minor) collections always
	// mark sequentially; the parallel engine assumes clear mark bits.
	FallbackKeepMarks = "keep-marks"
	// FallbackNonParallelHooks: the installed hooks do not implement
	// ParallelHooks, so per-edge checks cannot be sharded.
	FallbackNonParallelHooks = "non-parallel-hooks"
	// FallbackDecider: the engine demanded the sequential marker for this
	// cycle (a programmatic violation decider needs edge-time reactions).
	FallbackDecider = "decider"
)

func (c Collection) String() string {
	return fmt.Sprintf("GC#%d(%s): %v (own %v, mark %v, sweep %v) marked=%d freed=%d live=%d",
		c.Seq, c.Reason, c.TotalTime, c.OwnershipTime, c.MarkTime, c.SweepTime,
		c.ObjectsMarked, c.ObjectsFreed, c.ObjectsLive)
}

// Stats accumulates collection statistics across cycles.
type Stats struct {
	// Collections is the number of completed cycles.
	Collections uint64
	// TotalGCTime is the sum of all pauses.
	TotalGCTime time.Duration
	// OwnershipTime, MarkTime and SweepTime are per-phase sums.
	OwnershipTime time.Duration
	MarkTime      time.Duration
	SweepTime     time.Duration
	// MaxPause is the longest single pause.
	MaxPause time.Duration
	// ObjectsMarked and ObjectsFreed are cumulative totals.
	ObjectsMarked uint64
	ObjectsFreed  uint64
}

func (s *Stats) add(c Collection) {
	s.Collections++
	s.TotalGCTime += c.TotalTime
	s.OwnershipTime += c.OwnershipTime
	s.MarkTime += c.MarkTime
	s.SweepTime += c.SweepTime
	if c.TotalTime > s.MaxPause {
		s.MaxPause = c.TotalTime
	}
	s.ObjectsMarked += uint64(c.ObjectsMarked)
	s.ObjectsFreed += uint64(c.ObjectsFreed)
}

func (s Stats) String() string {
	return fmt.Sprintf("%d collections, %v total GC time (own %v, mark %v, sweep %v), max pause %v",
		s.Collections, s.TotalGCTime, s.OwnershipTime, s.MarkTime, s.SweepTime, s.MaxPause)
}
