package gcassert

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"gcassert/internal/collector"
	"gcassert/internal/core"
	"gcassert/internal/fleet"
	"gcassert/internal/flight"
	"gcassert/internal/heap"
	"gcassert/internal/rt"
	"gcassert/internal/telemetry"
	"gcassert/internal/version"
)

// Re-exported data types. These are aliases: values flow between the public
// API and the internal packages without conversion.
type (
	// Ref is a managed heap reference; the zero Ref is nil.
	Ref = heap.Addr
	// TypeID identifies a registered object type.
	TypeID = heap.TypeID
	// Field declares one object field (name + whether it is a reference).
	Field = heap.Field
	// Violation describes a triggered assertion, including the full heap
	// path from a root to the offending object.
	Violation = core.Violation
	// PathStep is one hop of a violation's heap path.
	PathStep = core.PathStep
	// Kind is an assertion kind.
	Kind = core.Kind
	// Reaction selects what happens when an assertion triggers.
	Reaction = core.Reaction
	// Policy maps assertion kinds to reactions.
	Policy = core.Policy
	// Reporter receives violations.
	Reporter = core.Reporter
	// CollectingReporter records violations in memory.
	CollectingReporter = core.CollectingReporter
	// HaltError is the panic payload of the ReactHalt reaction.
	HaltError = core.HaltError
	// Thread is a mutator context whose frames are GC roots.
	Thread = rt.Thread
	// Frame is a shadow-stack frame of local reference slots.
	Frame = rt.Frame
	// GCStats summarizes collector activity.
	GCStats = collector.Stats
	// Collection records one collection cycle.
	Collection = collector.Collection
	// GCReason labels why a collection ran.
	GCReason = collector.Reason
	// AssertStats counts assertion-engine activity.
	AssertStats = core.Stats
	// HeapStats summarizes allocation activity.
	HeapStats = heap.Stats
	// Telemetry is the observability layer: GC event trace, metrics
	// registry with pause histogram, violation log, and HTTP surface.
	// Obtain it with Runtime.Telemetry() on a telemetry-enabled runtime.
	Telemetry = telemetry.Tracer
	// WorkerStats is one parallel mark worker's activity in a Collection.
	WorkerStats = collector.WorkerStats
	// GCEvent is one structured GC trace record.
	GCEvent = telemetry.Event
	// WorkerMark is per-worker mark activity within a GCEvent.
	WorkerMark = telemetry.WorkerMark
	// PhaseSpan is one timed phase within a GCEvent.
	PhaseSpan = telemetry.PhaseSpan
	// KindCount is per-assertion-kind activity within a GCEvent.
	KindCount = telemetry.KindCount
	// Histogram is a log-bucketed duration histogram (pause times).
	Histogram = telemetry.Histogram
	// MetricsRegistry holds telemetry counters/gauges/histograms and
	// renders Prometheus text format.
	MetricsRegistry = telemetry.Registry
	// SiteID identifies a registered allocation site (0 = unknown). Obtain
	// one with Runtime.RegisterAllocSite and pass it to Thread.NewAt /
	// NewArrayAt.
	SiteID = heap.SiteID
	// FlightRecorder is the GC flight recorder: a bounded ring of recent
	// collection cycles plus recent violations, dumpable as a forensic
	// bundle. Obtain it with Runtime.Flight() on a flight-enabled runtime.
	FlightRecorder = flight.Recorder
	// FlightBundle is a captured forensic bundle.
	FlightBundle = flight.Bundle
	// FlightCycle is one recorded collection cycle in a bundle.
	FlightCycle = flight.Cycle
	// ViolationRecord is one violation as retained by the flight recorder.
	ViolationRecord = flight.ViolationRecord
	// SiteSample is one (allocation site, type) group of a bundle's heap
	// profile.
	SiteSample = flight.SiteSample
	// AssertCost is one assertion kind's attributed GC-time cost (check
	// count plus slow-path nanoseconds) on a Collection, a GCEvent, or a
	// flight-recorder cycle. Populated with Options.CostAttribution.
	AssertCost = collector.AssertCost
	// GCTrigger explains why a collection ran: the human-readable reason,
	// heap occupancy and allocation-rate EWMA at the trigger, and the
	// dominant allocating thread/site. Stamped on every Collection when
	// Options.CostAttribution is set.
	GCTrigger = collector.Trigger
	// PressureStats is the mutator-side heap-pressure snapshot returned by
	// Runtime.Pressure: allocation-rate EWMA, the heap-occupancy timeline,
	// and per-thread allocation totals.
	PressureStats = rt.PressureStats
	// ThreadAllocStats is one thread's allocation totals in PressureStats.
	ThreadAllocStats = rt.ThreadAllocStats
	// OccupancySample is one point of PressureStats' occupancy timeline.
	OccupancySample = rt.OccupancySample
	// ThreadAlloc is per-thread allocation activity within a GCEvent.
	ThreadAlloc = telemetry.ThreadAlloc
)

// Collection reasons recorded by the runtime.
const (
	// ReasonAllocFailure labels collections triggered by heap exhaustion.
	ReasonAllocFailure = collector.ReasonAllocFailure
	// ReasonForced labels explicit Collect calls.
	ReasonForced = collector.ReasonForced
)

// Nil is the null reference.
const Nil = heap.Nil

// Assertion kinds.
const (
	KindDead              = core.KindDead
	KindInstances         = core.KindInstances
	KindUnshared          = core.KindUnshared
	KindOwnedBy           = core.KindOwnedBy
	KindImproperOwnership = core.KindImproperOwnership
)

// Reactions.
const (
	// ReactLog logs the violation and continues (the default).
	ReactLog = core.ReactLog
	// ReactHalt panics with *HaltError on the first violation.
	ReactHalt = core.ReactHalt
	// ReactForce forces the assertion true where possible: for lifetime
	// assertions the collector severs every incoming reference so the
	// object is reclaimed in the same cycle.
	ReactForce = core.ReactForce
)

// Builtin array types.
const (
	// TRefArray is the builtin reference-array type.
	TRefArray = heap.TRefArray
	// TWordArray is the builtin scalar-array type.
	TWordArray = heap.TWordArray
)

// NewWriterReporter returns a Reporter that prints each violation to w in
// the paper's Figure 1 format.
func NewWriterReporter(w io.Writer) Reporter { return core.NewWriterReporter(w) }

// Options configures a Runtime.
type Options struct {
	// HeapBytes sizes the managed heap (default 64 MiB). The collector runs
	// when allocation fails.
	HeapBytes int
	// Infrastructure enables the GC-assertions infrastructure. Without it
	// the collector runs the unmodified base trace and assertion calls
	// panic — this is the paper's Base configuration, used for overhead
	// measurements.
	Infrastructure bool
	// Reporter receives violations; nil discards them (stats still count).
	Reporter Reporter
	// LogWriter, if non-nil, additionally prints violations to this writer.
	LogWriter io.Writer
	// Policy selects per-kind reactions (zero value: log everything).
	Policy Policy
	// OnViolation, if non-nil, chooses the reaction per violation at
	// detection time, overriding Policy — the paper's programmatic-
	// reaction interface (§2.6 future work). It runs inside the
	// stop-the-world collection and must not allocate on the managed heap
	// or register assertions.
	OnViolation func(*Violation) Reaction
	// Generational enables the sticky-mark-bit generational mode, in which
	// assertions are checked only at full-heap collections (§2.2).
	Generational bool
	// Workers selects the number of mark-phase workers. 0 or 1 (the
	// default) uses the sequential reference marker; n > 1 traces full
	// collections on the parallel mark engine, with assertion checks
	// sharded per worker and violation paths found after the mark by a
	// search over the marked objects. Generational minor collections
	// always mark sequentially. Runtimes with an OnViolation decider fall
	// back to the sequential marker (the decider's reaction must apply at
	// edge time).
	Workers int
	// MinorRatio is the number of minor collections between forced full
	// collections in generational mode (default 4).
	MinorRatio int
	// Telemetry enables the observability layer (structured GC event
	// trace, Prometheus metrics with a pause histogram, violation log,
	// HTTP surface) — see Runtime.Telemetry. It works in every mode,
	// including Base. Disabled (the default), the collector pays one
	// nil-check per phase and the mark hot path gains zero allocations.
	Telemetry bool
	// TelemetryRingSize bounds the retained GC event trace (default 1024
	// events; older events are evicted but cumulative metrics keep
	// counting).
	TelemetryRingSize int
	// Provenance selects allocation-site provenance: "" or "off" disables
	// it (the default); "exhaustive" records every sited allocation;
	// "sampled" records one in ProvenanceSample. With provenance on,
	// violations report the offending object's allocation site, census and
	// leak-suspect rankings break down by (type, site), and flight-recorder
	// bundles carry a site-resolved pprof heap profile. Allocation sites
	// are registered with Runtime.RegisterAllocSite and recorded by
	// Thread.NewAt / NewArrayAt; plain New/NewArray allocations group under
	// the unknown site. Disabled, the plain allocation path is untouched
	// and sited entry points cost one comparison.
	Provenance string
	// ProvenanceSample is the sampling rate for Provenance "sampled": one
	// in N sited allocations is recorded (default 64).
	ProvenanceSample int
	// FlightRecorder enables the GC flight recorder: an always-on bounded
	// ring of recent collection cycles (phase timings, per-worker mark
	// stats, per-kind assertion activity, census deltas) and recent
	// violations, dumpable on demand — Runtime.WriteFlightBundle, or
	// /debug/gcassert/fr with Telemetry — or automatically on violation,
	// as a self-contained JSON bundle embedding a pprof-format heap
	// profile. See Runtime.Flight.
	FlightRecorder bool
	// FlightCycles bounds the flight recorder's cycle ring (default 64).
	FlightCycles int
	// CostAttribution enables the GC cost-attribution and heap-pressure
	// layer: every full collection's assertion work is attributed per kind
	// (check counts exact, slow-path time measured), each Collection is
	// stamped with a trigger explanation (why the GC ran, heap occupancy,
	// allocation-rate EWMA, dominant allocating thread and site), and
	// Runtime.Pressure exposes per-thread allocation totals plus the
	// occupancy timeline. Works in every mode; with Telemetry the costs and
	// trigger ride on the event stream, the /metrics surface
	// (gcassert_gc_assert_cost_seconds{kind}), and the /debug/gcassert/live
	// SSE feed that cmd/gctop renders. Disabled (the default), the mark hot
	// path pays one nil-check per phase and gains zero allocations.
	CostAttribution bool
	// InstanceID names this runtime instance in exported artifacts: flight
	// bundles, census documents, and fleet envelopes. Empty generates a
	// host-pid-random ID — the right default for fleets of identical
	// replicas, where the content hash (not the name) is the identity that
	// matters.
	InstanceID string
	// Tenant, when non-empty, names this runtime as one tenant of a
	// multi-runtime host (gcassertd): exported artifacts carry the composed
	// instance ID "InstanceID/Tenant", so tenants sharing the host's
	// InstanceID remain distinct instances at the fleet collector instead
	// of colliding. Cross-tenant leak diffing in gcfleet depends on this.
	Tenant string
	// FleetURL enables the fleet exporter when non-empty: every FleetEvery
	// full collections the census snapshot is sealed into a
	// content-addressed envelope and shipped to the gcfleet collector at
	// this base URL; on an assertion violation a flight-recorder bundle
	// ships too. Sends happen on a background goroutine with a bounded
	// queue, so a slow or absent collector never blocks a collection. Pair
	// with Introspection (census) and FlightRecorder (forensics); with
	// Telemetry, /debug/gcassert/fleet reports exporter status and POST
	// ?export=now ships a census on demand. With FleetURL empty (the
	// default), the exporter does not exist and collections pay nothing.
	FleetURL string
	// FleetEvery is the census export interval in full collections
	// (default 1: every collection — the collector dedupes identical
	// content, so steady-state replicas are nearly free to report).
	FleetEvery int
	// Introspection enables the heap-introspection layer: a per-type live
	// census piggybacked on every full collection's mark phase, snapshot
	// diffing with Cork-style leak-suspect ranking, and on-demand dominator
	// / retained-size analysis — see Runtime.CensusSnapshots, LeakSuspects
	// and Dominators. Works in every mode, including Base. Disabled (the
	// default), the mark hot path pays one nil-check per marked object and
	// allocates nothing.
	Introspection bool
	// CensusRingSize bounds the retained census snapshots (default 64).
	CensusRingSize int
}

// Runtime is a managed runtime with GC assertions. All methods of the
// embedded runtime (thread and global management, Collect, Define,
// assertion registration) are part of the public API.
type Runtime struct {
	*rt.Runtime
}

// provenanceSample maps the Options provenance mode to the runtime's
// sampling rate (0 = off, 1 = exhaustive, N = one in N).
func provenanceSample(opts Options) int {
	switch opts.Provenance {
	case "", "off":
		return 0
	case "exhaustive":
		return 1
	case "sampled":
		if opts.ProvenanceSample > 1 {
			return opts.ProvenanceSample
		}
		return 64
	default:
		panic(fmt.Sprintf("gcassert: unknown Provenance mode %q (want off, sampled or exhaustive)", opts.Provenance))
	}
}

// New creates a runtime.
func New(opts Options) *Runtime {
	r := &Runtime{rt.New(rt.Config{
		HeapBytes:         opts.HeapBytes,
		Infrastructure:    opts.Infrastructure,
		Reporter:          opts.Reporter,
		LogWriter:         opts.LogWriter,
		Policy:            opts.Policy,
		Generational:      opts.Generational,
		MinorRatio:        opts.MinorRatio,
		Workers:           opts.Workers,
		Telemetry:         opts.Telemetry,
		TelemetryRingSize: opts.TelemetryRingSize,
		CostAttribution:   opts.CostAttribution,
		Introspection:     opts.Introspection,
		CensusRingSize:    opts.CensusRingSize,
		ProvenanceSample:  provenanceSample(opts),
		FlightRecorder:    opts.FlightRecorder,
		FlightCycles:      opts.FlightCycles,
		InstanceID:        opts.InstanceID,
		Tenant:            opts.Tenant,
		FleetURL:          opts.FleetURL,
		FleetEvery:        opts.FleetEvery,
	})}
	if opts.OnViolation != nil && r.Engine() != nil {
		r.Engine().SetDecider(opts.OnViolation)
	}
	if tel := r.Telemetry(); tel != nil {
		tel.SetHeapProfile(func(w io.Writer) error { return r.WriteHeapProfile(w, 0) })
		if census := r.Census(); census != nil {
			tel.SetCensusSource(census.WriteJSON)
			tel.SetLeakSource(census.WriteSuspectsJSON)
		}
		if fr := r.Flight(); fr != nil {
			tel.SetFlightSource(func(w io.Writer) error { return fr.WriteBundle(w, "http") })
		}
		if fx := r.FleetExporter(); fx != nil {
			tel.SetFleetSource(func(w io.Writer, export bool) error {
				doc := struct {
					Instance version.Identity  `json:"instance"`
					Stats    fleet.ExportStats `json:"stats"`
					Exported string            `json:"exported_hash,omitempty"`
					Error    string            `json:"export_error,omitempty"`
				}{Instance: fx.Identity(), Stats: fx.Stats()}
				if export {
					hash, err := fx.ExportLatest()
					if err != nil {
						doc.Error = err.Error()
					} else {
						doc.Exported = hash
					}
					doc.Stats = fx.Stats()
				}
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				return enc.Encode(&doc)
			})
		}
	}
	return r
}

// WriteFlightBundle dumps a flight-recorder forensic bundle to w: the
// retained cycle timeline, the retained violations, and a pprof-format
// heap profile of the live heap grouped by (allocation site, type). The
// bundle's heap profile walks the managed heap, so call it while the
// runtime is quiescent. trigger labels what prompted the dump (shows up in
// the bundle header; "manual" is a fine default). It panics when the
// runtime was created without Options.FlightRecorder.
func (r *Runtime) WriteFlightBundle(w io.Writer, trigger string) error {
	fr := r.Flight()
	if fr == nil {
		panic("gcassert: WriteFlightBundle requires Options.FlightRecorder")
	}
	return fr.WriteBundle(w, trigger)
}

// ReadFlightBundle parses a bundle written by WriteFlightBundle (or the
// /debug/gcassert/fr endpoint, or a violation-triggered dump).
func ReadFlightBundle(rd io.Reader) (FlightBundle, error) { return flight.ReadBundle(rd) }

// ParseHeapProfile decodes a bundle's embedded pprof heap profile.
func ParseHeapProfile(data []byte) (*flight.Profile, error) { return flight.ParseProfile(data) }

// TelemetryHandler returns the telemetry HTTP surface (/metrics,
// /debug/gcassert/trace, /debug/gcassert/violations,
// /debug/gcassert/heap). It panics when the runtime was created without
// the Telemetry option. All endpoints except the heap profile are safe to
// scrape while the workload runs; see telemetry.Tracer.Handler.
func (r *Runtime) TelemetryHandler() http.Handler {
	tel := r.Telemetry()
	if tel == nil {
		panic("gcassert: TelemetryHandler requires Options.Telemetry")
	}
	return tel.Handler()
}

// GetRef loads the reference field at slot of the object at a.
func (r *Runtime) GetRef(a Ref, slot int) Ref { return r.Space().GetRef(a, slot) }

// SetRef stores v into the reference field at slot of the object at a.
func (r *Runtime) SetRef(a Ref, slot int, v Ref) { r.Space().SetRef(a, slot, v) }

// GetScalar loads the scalar field at slot of the object at a.
func (r *Runtime) GetScalar(a Ref, slot int) uint64 { return r.Space().GetScalar(a, slot) }

// SetScalar stores v into the scalar field at slot of the object at a.
func (r *Runtime) SetScalar(a Ref, slot int, v uint64) { r.Space().SetScalar(a, slot, v) }

// RefAt loads element i of the reference array at a.
func (r *Runtime) RefAt(a Ref, i int) Ref { return r.Space().RefAt(a, i) }

// SetRefAt stores v into element i of the reference array at a.
func (r *Runtime) SetRefAt(a Ref, i int, v Ref) { r.Space().SetRefAt(a, i, v) }

// WordAt loads element i of the scalar array at a.
func (r *Runtime) WordAt(a Ref, i int) uint64 { return r.Space().WordAt(a, i) }

// SetWordAt stores v into element i of the scalar array at a.
func (r *Runtime) SetWordAt(a Ref, i int, v uint64) { r.Space().SetWordAt(a, i, v) }

// TypeName returns the type name of the object at a.
func (r *Runtime) TypeName(a Ref) string { return r.Space().TypeName(a) }

// ArrayLen returns the length of the array at a.
func (r *Runtime) ArrayLen(a Ref) int { return r.Space().ArrayLen(a) }

// FieldIndex resolves a field name of type t to its slot index.
func (r *Runtime) FieldIndex(t TypeID, name string) int {
	return r.Registry().Info(t).FieldIndex(name)
}

// GCStats returns cumulative collector statistics.
func (r *Runtime) GCStats() GCStats { return r.Collector().Stats() }

// AssertionStats returns the assertion engine's counters (zero value when
// infrastructure mode is off).
func (r *Runtime) AssertionStats() AssertStats {
	if r.Engine() == nil {
		return AssertStats{}
	}
	return r.Engine().Stats()
}

// HeapStats returns allocation statistics.
func (r *Runtime) HeapStats() HeapStats { return r.Space().Stats() }

// LiveInstances returns the live-instance count of t observed at the most
// recent collection (only for types under AssertInstances tracking).
func (r *Runtime) LiveInstances(t TypeID) (int64, bool) {
	if r.Engine() == nil {
		return 0, false
	}
	return r.Engine().LiveInstances(t)
}
