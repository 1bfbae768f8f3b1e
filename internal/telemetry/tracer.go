package telemetry

import (
	"io"
	"strconv"
	"sync"
	"time"

	"gcassert/internal/sse"
)

// Config configures a Tracer.
type Config struct {
	// RingSize is the number of recent GC events retained (default 1024).
	RingSize int
	// ViolationLog is the number of recent violation reports retained
	// (default 128).
	ViolationLog int
}

// Tracer is the runtime's telemetry hub: it owns the GC event ring, the
// metrics registry (with the pause histogram), and the violation log, and
// serves all of them over HTTP. One Tracer observes one runtime.
//
// Record and RecordTrigger are called from inside stop-the-world
// collections (single-threaded); every reader method is safe to call
// concurrently from other goroutines while the workload runs.
type Tracer struct {
	start time.Time
	ring  *Ring
	reg   *Registry

	pause       *Histogram
	rootsTotal  *Counter
	markedTotal *Counter
	freedTotal  *Counter
	wordsFreed  *Counter
	allocObjs   *Counter
	allocWords  *Counter
	liveObjects *Gauge
	violTotal   *Counter

	live sse.Hub

	vmu      sync.Mutex
	viols    []string
	violCap  int
	violSeen uint64

	// onRecord, when set, observes every event synchronously at the end of
	// Record — see OnRecord.
	onRecord func(*Event)

	hmu         sync.Mutex
	heapProfile func(io.Writer) error
	censusFn    func(w io.Writer, n int) error
	leaksFn     func(w io.Writer, window, top int) error
	flightFn    func(io.Writer) error
	fleetFn     func(w io.Writer, export bool) error
}

// New creates a Tracer.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	if cfg.ViolationLog <= 0 {
		cfg.ViolationLog = 128
	}
	reg := NewRegistry()
	t := &Tracer{
		start:   time.Now(),
		ring:    NewRing(cfg.RingSize),
		reg:     reg,
		violCap: cfg.ViolationLog,

		pause: reg.Histogram("gcassert_gc_pause_seconds",
			"Stop-the-world GC pause durations.", DefaultPauseBuckets()),
		rootsTotal: reg.Counter("gcassert_gc_roots_scanned_total",
			"Root slots examined across all collections."),
		markedTotal: reg.Counter("gcassert_gc_objects_marked_total",
			"Objects marked across all collections."),
		freedTotal: reg.Counter("gcassert_gc_objects_freed_total",
			"Objects reclaimed across all sweeps."),
		wordsFreed: reg.Counter("gcassert_gc_words_freed_total",
			"Heap words reclaimed across all sweeps."),
		allocObjs: reg.Counter("gcassert_alloc_objects_total",
			"Objects allocated by the mutator."),
		allocWords: reg.Counter("gcassert_alloc_words_total",
			"Heap words allocated by the mutator."),
		liveObjects: reg.Gauge("gcassert_heap_live_objects",
			"Live objects after the most recent collection."),
		violTotal: reg.Counter("gcassert_violations_logged_total",
			"Assertion violations delivered to the telemetry log."),
	}
	t.live.DropMetric = reg.Counter("gcassert_live_dropped_frames_total",
		"Live-feed frames dropped because a subscriber could not keep up.")
	return t
}

// Start returns the tracer's creation time (the trace epoch).
func (t *Tracer) Start() time.Time { return t.start }

// Registry exposes the metrics registry (for extra user metrics and for
// rendering).
func (t *Tracer) Registry() *Registry { return t.reg }

// PauseHistogram exposes the GC pause histogram.
func (t *Tracer) PauseHistogram() *Histogram { return t.pause }

// Ring exposes the event ring.
func (t *Tracer) Ring() *Ring { return t.ring }

// RecordTrigger counts a GC trigger by reason; the runtime calls it when a
// collection starts.
func (t *Tracer) RecordTrigger(reason string) {
	t.reg.Counter("gcassert_gc_triggers_total",
		"Collections triggered, by reason.", Label{"reason", reason}).Inc()
}

// AddAllocations accumulates mutator allocation activity (the runtime
// feeds it the heap-stats delta since the previous collection, so the
// mutator's allocation fast path is untouched).
func (t *Tracer) AddAllocations(objects, words uint64) {
	t.allocObjs.Add(objects)
	t.allocWords.Add(words)
}

// Record ingests one completed collection: it assigns the event's
// tracer-global sequence number, pushes it into the ring, and updates
// every derived metric. The event must not be mutated afterwards.
func (t *Tracer) Record(ev *Event) {
	ev.Seq = t.ring.Total()
	t.ring.Push(ev)

	t.pause.Observe(time.Duration(ev.TotalNs))
	t.reg.Counter("gcassert_gc_collections_total",
		"Completed collections, by reason.", Label{"reason", ev.Reason}).Inc()
	for _, p := range ev.Phases {
		t.reg.Counter("gcassert_gc_phase_ns_total",
			"Cumulative per-phase GC time in nanoseconds.", Label{"phase", p.Phase}).Add(uint64(p.DurNs))
	}
	t.rootsTotal.Add(uint64(ev.RootsScanned))
	t.markedTotal.Add(uint64(ev.ObjectsMarked))
	t.freedTotal.Add(uint64(ev.ObjectsFreed))
	t.wordsFreed.Add(uint64(ev.WordsFreed))
	t.liveObjects.Set(int64(ev.ObjectsLive))
	for _, k := range ev.Kinds {
		if k.Checks != 0 {
			t.reg.Counter("gcassert_assert_checks_total",
				"Assertion checks performed, by kind.", Label{"kind", k.Kind}).Add(k.Checks)
		}
		if k.Violations != 0 {
			t.reg.Counter("gcassert_assert_violations_total",
				"Assertion violations detected, by kind.", Label{"kind", k.Kind}).Add(k.Violations)
		}
	}
	if ev.Fallback != "" {
		t.reg.Counter("gcassert_gc_mark_fallback_total",
			"Collections that fell back from parallel to sequential marking, by reason.",
			Label{"reason", ev.Fallback}).Inc()
	}
	if ev.Workers > 0 {
		t.reg.Gauge("gcassert_gc_mark_workers",
			"Mark-phase workers used by the most recent collection.").Set(int64(ev.Workers))
		var steals uint64
		for _, w := range ev.PerWorker {
			steals += uint64(w.Steals)
			t.reg.Counter("gcassert_gc_worker_marked_total",
				"Objects marked, by parallel mark worker.",
				Label{"worker", strconv.Itoa(w.Worker)}).Add(uint64(w.Marked))
		}
		if len(ev.PerWorker) > 0 {
			t.reg.Counter("gcassert_gc_mark_steals_total",
				"Work packets taken from the shared pool by mark workers across all parallel marks.").Add(steals)
		}
	}
	// Cost attribution and pressure, when the runtime stamps them on events.
	// Zero-valued Adds still register the series, so an attributing runtime
	// exposes every kind label from the first collection on.
	for _, c := range ev.Costs {
		t.reg.FloatCounter("gcassert_gc_assert_cost_seconds",
			"Attributed assertion slow-path time, by kind.",
			Label{"kind", c.Kind}).Add(float64(c.Ns) / 1e9)
		if c.Checks != 0 {
			t.reg.Counter("gcassert_gc_assert_cost_checks_total",
				"Attributed assertion checks, by kind.",
				Label{"kind", c.Kind}).Add(c.Checks)
		}
	}
	if ev.Trigger != "" {
		t.reg.Gauge("gcassert_heap_occupancy_pct",
			"Heap occupancy at the most recent collection trigger (percent, rounded).").
			Set(int64(ev.OccupancyPct + 0.5))
		t.reg.Gauge("gcassert_alloc_rate_words_per_second",
			"Allocation-rate EWMA at the most recent collection trigger (words/second, rounded).").
			Set(int64(ev.AllocRateWps + 0.5))
	}
	t.live.PublishJSON(ev)
	if t.onRecord != nil {
		t.onRecord(ev)
	}
}

// OnRecord installs a synchronous event listener invoked at the end of every
// Record call, after the ring and metrics are updated. Unlike the ring (which
// evicts) and the live feed (which drops frames for slow subscribers), the
// listener sees every collection exactly once — the lossless tap the latency
// lab's pause attribution depends on. It runs inside the stop-the-world
// pause on the collecting goroutine, so it must be brief, must not touch the
// managed heap, and must not call back into the runtime. The event is shared
// with the ring: treat it as read-only. Install the listener before the
// workload starts (Record and OnRecord must not race); nil uninstalls.
func (t *Tracer) OnRecord(fn func(*Event)) { t.onRecord = fn }

// Events returns a snapshot of the retained GC events, oldest first.
func (t *Tracer) Events() []Event { return t.ring.Snapshot() }

// WriteJSONL writes the retained events as JSON lines.
func (t *Tracer) WriteJSONL(w io.Writer) error { return WriteJSONL(w, t.Events()) }

// WriteGoTrace writes the retained events as gctrace-style lines.
func (t *Tracer) WriteGoTrace(w io.Writer) error { return WriteGoTrace(w, t.Events(), t.start) }

// WriteChromeTrace writes the retained events as Chrome trace_event JSON.
func (t *Tracer) WriteChromeTrace(w io.Writer) error { return WriteChromeTrace(w, t.Events()) }

// WriteMetrics renders the registry in Prometheus text format.
func (t *Tracer) WriteMetrics(w io.Writer) error { return t.reg.WritePrometheus(w) }

// LogViolation appends one formatted violation report to the bounded log
// (oldest entries are evicted) and counts it.
func (t *Tracer) LogViolation(report string) {
	t.violTotal.Inc()
	t.vmu.Lock()
	defer t.vmu.Unlock()
	t.violSeen++
	if len(t.viols) >= t.violCap {
		copy(t.viols, t.viols[1:])
		t.viols = t.viols[:len(t.viols)-1]
	}
	t.viols = append(t.viols, report)
}

// Violations returns the retained violation reports, oldest first, plus
// the total number ever logged (retained ≤ total when the log wrapped).
func (t *Tracer) Violations() (reports []string, total uint64) {
	t.vmu.Lock()
	defer t.vmu.Unlock()
	return append([]string(nil), t.viols...), t.violSeen
}

// SetHeapProfile installs the function backing /debug/gcassert/heap.
// The facade wires it to Runtime.WriteHeapProfile. The function walks the
// live heap, so it must only be invoked while the runtime is quiescent
// (between mutator steps) — see Handler.
func (t *Tracer) SetHeapProfile(f func(io.Writer) error) {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	t.heapProfile = f
}

func (t *Tracer) heapProfileFn() func(io.Writer) error {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	return t.heapProfile
}

// SetCensusSource installs the function backing /debug/gcassert/census; the
// facade wires it to the census ring's JSON export (last n snapshots, n <= 0
// for all). The census ring is mutex-guarded, so unlike the heap profile this
// source is safe to scrape while the workload runs.
func (t *Tracer) SetCensusSource(f func(w io.Writer, n int) error) {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	t.censusFn = f
}

// SetLeakSource installs the function backing /debug/gcassert/leaks: leak
// suspects ranked over the last `window` census snapshots, top `top`
// returned. Also safe to scrape concurrently.
func (t *Tracer) SetLeakSource(f func(w io.Writer, window, top int) error) {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	t.leaksFn = f
}

// SetFlightSource installs the function backing /debug/gcassert/fr: a
// flight-recorder bundle dump. The facade wires it to the recorder's
// WriteBundle; the bundle's heap profile walks the managed heap, so like
// the heap endpoint it must only be hit while the runtime is quiescent.
func (t *Tracer) SetFlightSource(f func(io.Writer) error) {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	t.flightFn = f
}

func (t *Tracer) flightSourceFn() func(io.Writer) error {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	return t.flightFn
}

func (t *Tracer) censusSourceFn() func(io.Writer, int) error {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	return t.censusFn
}

func (t *Tracer) leakSourceFn() func(io.Writer, int, int) error {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	return t.leaksFn
}

// SetFleetSource installs the function backing /debug/gcassert/fleet: the
// fleet exporter's status (identity, queue/send stats), and — when export
// is true — an on-demand census export to the collector first. The status
// is mutex-guarded on the exporter side, so the endpoint is safe to hit
// while the workload runs.
func (t *Tracer) SetFleetSource(f func(w io.Writer, export bool) error) {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	t.fleetFn = f
}

func (t *Tracer) fleetSourceFn() func(io.Writer, bool) error {
	t.hmu.Lock()
	defer t.hmu.Unlock()
	return t.fleetFn
}
