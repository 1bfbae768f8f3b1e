package rt

import (
	"gcassert/internal/collector"
	"gcassert/internal/heap"
	"gcassert/internal/telemetry"
)

// telemetrySink projects each completed collection record into a telemetry
// Event. It lives only on telemetry-enabled runtimes; a disabled runtime
// leaves the collector's Observer nil, so the Base trace is unperturbed.
//
// The sink runs inside stop-the-world collections on the runtime's
// goroutine, so plain fields need no synchronization; the tracer it feeds
// is the concurrency boundary.
type telemetrySink struct {
	collector.GCEndOnly
	r *Runtime
	t *telemetry.Tracer

	// heapLast is the heap-stats snapshot of the previous collection:
	// allocation counters cover the whole inter-GC window.
	heapLast heap.Stats
}

var _ collector.Observer = (*telemetrySink)(nil)

func newTelemetrySink(r *Runtime, t *telemetry.Tracer) *telemetrySink {
	return &telemetrySink{r: r, t: t, heapLast: r.space.Stats()}
}

func (s *telemetrySink) GCEnd(col *collector.Collection) {
	s.t.RecordTrigger(string(col.Reason))
	ev := telemetry.NewEvent(col)
	if s.r.pressure != nil {
		ev.Threads = make([]telemetry.ThreadAlloc, len(s.r.threads))
		for i, th := range s.r.threads {
			ev.Threads[i] = telemetry.ThreadAlloc{Name: th.name, Objects: th.allocObjects, Words: th.allocWords}
		}
	}
	hs := s.r.space.Stats()
	s.t.AddAllocations(hs.ObjectsAllocated-s.heapLast.ObjectsAllocated,
		hs.WordsAllocated-s.heapLast.WordsAllocated)
	s.heapLast = hs
	s.t.Record(ev)
}
