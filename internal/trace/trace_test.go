package trace

import (
	"encoding/binary"
	"strings"
	"testing"

	"gcassert/internal/collector"
	"gcassert/internal/telemetry"
)

func TestParseTraceparentValid(t *testing.T) {
	sc, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	if !ok {
		t.Fatal("valid traceparent rejected")
	}
	if got := sc.TraceID.String(); got != "0af7651916cd43dd8448eb211c80319c" {
		t.Errorf("trace id = %s", got)
	}
	if got := sc.SpanID.String(); got != "b7ad6b7169203331" {
		t.Errorf("span id = %s", got)
	}
	if !sc.Sampled {
		t.Error("sampled flag not parsed")
	}

	// Unsampled flag.
	sc, ok = ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00")
	if !ok || sc.Sampled {
		t.Errorf("flags 00: ok=%v sampled=%v, want ok, unsampled", ok, sc.Sampled)
	}

	// Surrounding whitespace is tolerated.
	if _, ok := ParseTraceparent("  00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01\n"); !ok {
		t.Error("whitespace-padded header rejected")
	}

	// A future version may carry extra dash-separated fields and must still
	// parse as version 00 up to its known prefix.
	if _, ok := ParseTraceparent("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra"); !ok {
		t.Error("future-version header with extra field rejected")
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := map[string]string{
		"empty":              "",
		"too few parts":      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",
		"version ff":         "ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"version not hex":    "zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"v00 extra fields":   "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra",
		"all-zero trace id":  "00-00000000000000000000000000000000-b7ad6b7169203331-01",
		"all-zero span id":   "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",
		"short trace id":     "00-0af7651916cd43dd-b7ad6b7169203331-01",
		"short span id":      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b71-01",
		"uppercase trace id": "00-0AF7651916CD43DD8448EB211C80319C-b7ad6b7169203331-01",
		"non-hex span id":    "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333g-01",
		"three-char flags":   "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-011",
		"flags not hex":      "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0x",
	}
	for name, h := range bad {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want reject", name, h)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	orig := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	got, ok := ParseTraceparent(orig.Traceparent())
	if !ok || got != orig {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, orig)
	}
	orig.Sampled = false
	got, ok = ParseTraceparent(orig.Traceparent())
	if !ok || got != orig {
		t.Fatalf("unsampled round trip: got %+v ok=%v, want %+v", got, ok, orig)
	}
}

func TestParseIDs(t *testing.T) {
	if _, err := ParseTraceID(strings.Repeat("0", 32)); err == nil {
		t.Error("all-zero trace id accepted")
	}
	if _, err := ParseSpanID(strings.Repeat("0", 16)); err == nil {
		t.Error("all-zero span id accepted")
	}
	if _, err := ParseTraceID("abc"); err == nil {
		t.Error("short trace id accepted")
	}
	if _, err := ParseSpanID("abc"); err == nil {
		t.Error("short span id accepted")
	}
	id := NewTraceID()
	back, err := ParseTraceID(id.String())
	if err != nil || back != id {
		t.Errorf("trace id round trip: %v %v", back, err)
	}
	sid := NewSpanID()
	sback, err := ParseSpanID(sid.String())
	if err != nil || sback != sid {
		t.Errorf("span id round trip: %v %v", sback, err)
	}
	if NewTraceID().IsZero() || NewSpanID().IsZero() {
		t.Error("fresh ID is all-zero")
	}
}

func TestOverlap(t *testing.T) {
	cases := []struct {
		a0, a1, b0, b1, want int64
	}{
		{0, 10, 5, 15, 5},    // partial overlap
		{5, 15, 0, 10, 5},    // symmetric
		{0, 10, 10, 20, 0},   // touching half-open ends
		{0, 10, 20, 30, 0},   // disjoint
		{0, 100, 40, 60, 20}, // containment
		{40, 60, 0, 100, 20}, // contained
		{5, 5, 0, 10, 0},     // empty interval
	}
	for _, c := range cases {
		if got := Overlap(c.a0, c.a1, c.b0, c.b1); got != c.want {
			t.Errorf("Overlap(%d,%d,%d,%d) = %d, want %d", c.a0, c.a1, c.b0, c.b1, got, c.want)
		}
	}
}

func pauseEvent(startNs, totalNs int64) telemetry.Event {
	return telemetry.Event{StartUnixNs: startNs, TotalNs: totalNs}
}

func TestIntersectPauses(t *testing.T) {
	// Three requests back to back; pause 0 inside request 0, pause 1
	// straddling requests 1 and 2, pause 2 after every window.
	windows := []Window{{0, 100}, {100, 200}, {200, 300}}
	events := []telemetry.Event{
		pauseEvent(40, 20),  // [40,60) — wholly inside window 0
		pauseEvent(180, 40), // [180,220) — 20ns in window 1, 20ns in window 2
		pauseEvent(500, 10), // [500,510) — intersects nothing
	}
	type hit struct {
		ei, wi int
		o      int64
	}
	var hits []hit
	IntersectPauses(events, windows, func(ei, wi int, o int64) {
		hits = append(hits, hit{ei, wi, o})
	})
	want := []hit{{0, 0, 20}, {1, 1, 20}, {1, 2, 20}}
	if len(hits) != len(want) {
		t.Fatalf("hits = %+v, want %+v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Errorf("hit %d = %+v, want %+v", i, hits[i], want[i])
		}
	}

	// Empty inputs must be safe.
	IntersectPauses(nil, windows, func(_, _ int, _ int64) { t.Error("hit with no events") })
	IntersectPauses(events, nil, func(_, _ int, _ int64) { t.Error("hit with no windows") })
}

func TestSamplerKeepPriority(t *testing.T) {
	s := Sampler{SlowPauseNs: 100, Probability: 1}

	// Violation outranks everything.
	if keep, reason := s.Keep(true, true, 1000); !keep || reason != KeepViolation {
		t.Errorf("violation: keep=%v reason=%q", keep, reason)
	}
	// SLO-bad outranks slow-pause.
	if keep, reason := s.Keep(false, true, 1000); !keep || reason != KeepSLOBad {
		t.Errorf("slo-bad: keep=%v reason=%q", keep, reason)
	}
	// Slow pause at exactly the threshold keeps.
	if keep, reason := s.Keep(false, false, 100); !keep || reason != KeepSlowPause {
		t.Errorf("slow-pause: keep=%v reason=%q", keep, reason)
	}
	// Below threshold falls through to probability.
	if keep, reason := s.Keep(false, false, 99); !keep || reason != KeepProbability {
		t.Errorf("probability: keep=%v reason=%q", keep, reason)
	}
	// SlowPauseNs == 0 disables the pause criterion.
	s2 := Sampler{Probability: 0}
	if keep, reason := s2.Keep(false, false, 1<<40); keep || reason != "" {
		t.Errorf("disabled slow-pause: keep=%v reason=%q", keep, reason)
	}
}

func TestSamplerProbability(t *testing.T) {
	// Deterministic Rand: below p keeps, at/above p drops.
	s := Sampler{Probability: 0.5, Rand: func() float64 { return 0.49 }}
	if keep, reason := s.Keep(false, false, 0); !keep || reason != KeepProbability {
		t.Errorf("rand below p: keep=%v reason=%q", keep, reason)
	}
	s.Rand = func() float64 { return 0.5 }
	if keep, _ := s.Keep(false, false, 0); keep {
		t.Error("rand at p kept")
	}
	// p <= 0 drops without consulting Rand; p >= 1 keeps without it.
	s = Sampler{Probability: 0, Rand: func() float64 { t.Error("Rand consulted at p=0"); return 0 }}
	if keep, _ := s.Keep(false, false, 0); keep {
		t.Error("p=0 kept")
	}
	s = Sampler{Probability: 1, Rand: func() float64 { t.Error("Rand consulted at p=1"); return 0.99 }}
	if keep, reason := s.Keep(false, false, 0); !keep || reason != KeepProbability {
		t.Errorf("p=1: keep=%v reason=%q", keep, reason)
	}
}

// seqIDs returns a deterministic span ID generator: 1, 2, 3, ...
func seqIDs() func() SpanID {
	var n uint64
	return func() SpanID {
		n++
		var id SpanID
		binary.BigEndian.PutUint64(id[:], n)
		return id
	}
}

func TestBuilderSpanTree(t *testing.T) {
	parent := SpanContext{TraceID: mustTraceID(t, "0af7651916cd43dd8448eb211c80319c"), SpanID: mustSpanID(t, "b7ad6b7169203331"), Sampled: true}
	b := NewBuilder(parent, "acme", "host-1", "drive", 1000)
	b.NewSpanIDFn = seqIDs()
	// NewBuilder already minted the root span from the default generator;
	// rebuild with the hook installed so every ID is deterministic.
	b = NewBuilder(parent, "acme", "host-1", "drive", 1000)
	b.NewSpanIDFn = seqIDs()
	b.rootSpan = b.newSpanID() // root = 1
	b.RootAttr("requests", 2)

	// Request 0: [1000, 2000), carries a tag-matched GC.
	r0 := b.StartRequest(1000) // span 2
	ev0 := pauseEvent(1500, 100)
	ev0.Seq = 7
	ev0.Reason = "allocation-failure"
	ev0.Request = r0.String()
	ev0.Trigger = "occupancy"
	ev0.OccupancyPct = 87.5
	ev0.Costs = []collector.AssertCost{{Kind: "assert-dead", Checks: 3, Ns: 42}}
	ev0.Phases = []collector.PhaseSpan{{Phase: "mark", StartUnixNs: 1500, DurNs: 60}, {Phase: "sweep", StartUnixNs: 1560, DurNs: 40}}
	b.Violation("assert-dead", "Node", "main.go:10", "stack", "object reachable", 1550)
	b.GCEvent(&ev0)
	b.EndRequest(2000, "", false, 1)

	// Request 1: [2000, 3000), GC with no tag — window overlap must parent
	// it here.
	b.StartRequest(2000) // span 3
	ev1 := pauseEvent(2500, 200)
	ev1.Seq = 8
	b.GCEvent(&ev1)
	b.EndRequest(3000, "guest fault", true, 0)

	// Batch-end collection after every request window: parents on root.
	ev2 := pauseEvent(3500, 50)
	ev2.Seq = 9
	b.GCEvent(&ev2)

	// A violation that never sees a closing GCEvent lands on the root.
	b.Violation("assert-ownedby", "Leaf", "main.go:20", "", "", 3600)

	if !b.HasViolations() {
		t.Fatal("HasViolations = false")
	}
	if !b.SLOBad() {
		t.Fatal("SLOBad = false")
	}
	if got := b.MaxPauseNs(); got != 200 {
		t.Fatalf("MaxPauseNs = %d", got)
	}

	doc := b.Finish(4000)

	if doc.TraceID != parent.TraceID.String() {
		t.Errorf("trace id %s does not continue caller's %s", doc.TraceID, parent.TraceID)
	}
	if doc.Requests != 2 || doc.GCs != 3 {
		t.Errorf("rollup requests=%d gcs=%d, want 2, 3", doc.Requests, doc.GCs)
	}
	if doc.Violations != 2 {
		t.Errorf("rollup violations=%d, want 2 (one adopted, one orphan)", doc.Violations)
	}
	if doc.GCPauseNs != 350 {
		t.Errorf("GCPauseNs = %d, want 350", doc.GCPauseNs)
	}
	if doc.MaxPauseNs != 200 {
		t.Errorf("MaxPauseNs = %d, want 200", doc.MaxPauseNs)
	}
	if doc.ServicePauseNs != 300 {
		t.Errorf("ServicePauseNs = %d, want 300 (100 + 200, trailing GC outside)", doc.ServicePauseNs)
	}

	root := doc.Span(doc.RootSpanID)
	if root == nil {
		t.Fatal("root span missing")
	}
	if root.Parent != parent.SpanID.String() {
		t.Errorf("root parent = %q, want remote parent %s", root.Parent, parent.SpanID)
	}
	if len(root.Events) != 1 || root.Events[0].Name != "violation:assert-ownedby" {
		t.Errorf("orphan violation not on root: %+v", root.Events)
	}

	// Request spans.
	var reqSpans []*Span
	for i := range doc.Spans {
		if doc.Spans[i].Name == "request" {
			reqSpans = append(reqSpans, &doc.Spans[i])
		}
	}
	if len(reqSpans) != 2 {
		t.Fatalf("request spans = %d", len(reqSpans))
	}
	if reqSpans[0].Attrs["gc_pause_ns"] != int64(100) {
		t.Errorf("request 0 gc_pause_ns = %v, want 100", reqSpans[0].Attrs["gc_pause_ns"])
	}
	if reqSpans[1].Attrs["gc_pause_ns"] != int64(200) {
		t.Errorf("request 1 gc_pause_ns = %v, want 200", reqSpans[1].Attrs["gc_pause_ns"])
	}
	if reqSpans[1].Attrs["slo_bad"] != true || reqSpans[1].Attrs["error"] != "guest fault" {
		t.Errorf("request 1 attrs = %v", reqSpans[1].Attrs)
	}

	// GC spans: find by seq.
	gcBySeq := map[uint64]*Span{}
	for i := range doc.Spans {
		if doc.Spans[i].Name == "gc" {
			gcBySeq[doc.Spans[i].Attrs["seq"].(uint64)] = &doc.Spans[i]
		}
	}
	if len(gcBySeq) != 3 {
		t.Fatalf("gc spans = %d", len(gcBySeq))
	}
	// Tag-matched: parented on request 0 by runtime evidence.
	if gcBySeq[7].Parent != reqSpans[0].SpanID {
		t.Errorf("tagged gc parent = %s, want request 0 %s", gcBySeq[7].Parent, reqSpans[0].SpanID)
	}
	// Untagged: window-overlap fallback parents on request 1.
	if gcBySeq[8].Parent != reqSpans[1].SpanID {
		t.Errorf("untagged gc parent = %s, want request 1 %s", gcBySeq[8].Parent, reqSpans[1].SpanID)
	}
	// Outside every window: parents on root.
	if gcBySeq[9].Parent != doc.RootSpanID {
		t.Errorf("trailing gc parent = %s, want root", gcBySeq[9].Parent)
	}

	// The adopted violation rides the tagged collection, with provenance.
	g := gcBySeq[7]
	if len(g.Events) != 1 {
		t.Fatalf("tagged gc events = %+v", g.Events)
	}
	v := g.Events[0]
	if v.Name != "violation:assert-dead" || v.Attrs["allocated_at"] != "main.go:10" || v.Attrs["type"] != "Node" {
		t.Errorf("violation event = %+v", v)
	}
	if g.Attrs["cost_ns.assert-dead"] != int64(42) || g.Attrs["cost_checks.assert-dead"] != uint64(3) {
		t.Errorf("per-kind cost attrs = %v", g.Attrs)
	}
	if g.Attrs["trigger"] != "occupancy" {
		t.Errorf("trigger attr = %v", g.Attrs["trigger"])
	}

	// Phase sub-spans hang off the tagged GC span.
	var phases []*Span
	for i := range doc.Spans {
		if doc.Spans[i].Parent == g.SpanID {
			phases = append(phases, &doc.Spans[i])
		}
	}
	if len(phases) != 2 || phases[0].Name != "gc:mark" || phases[1].Name != "gc:sweep" {
		t.Fatalf("phase sub-spans = %+v", phases)
	}
	if phases[0].DurNs() != 60 || phases[1].DurNs() != 40 {
		t.Errorf("phase durations = %d, %d", phases[0].DurNs(), phases[1].DurNs())
	}
}

func TestBuilderFreshTrace(t *testing.T) {
	b := NewBuilder(SpanContext{}, "acme", "host-1", "drive", 0)
	if b.Context().TraceID.IsZero() {
		t.Fatal("no trace ID minted without a remote parent")
	}
	if !b.Context().Sampled {
		t.Error("builder context must advertise sampled")
	}
	doc := b.Finish(10)
	root := doc.Span(doc.RootSpanID)
	if root == nil || root.Parent != "" {
		t.Errorf("fresh trace root must have no parent: %+v", root)
	}
}

func mustTraceID(t *testing.T, s string) TraceID {
	t.Helper()
	id, err := ParseTraceID(s)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func mustSpanID(t *testing.T, s string) SpanID {
	t.Helper()
	id, err := ParseSpanID(s)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func docWithID(id string, startNs int64) *Document {
	return &Document{TraceID: id, StartUnixNs: startNs, EndUnixNs: startNs + 1}
}

func TestStoreEvictionOrder(t *testing.T) {
	s := NewStore(3)
	if s.Cap() != 3 {
		t.Fatalf("cap = %d", s.Cap())
	}
	s.Put(docWithID("a", 1))
	s.Put(docWithID("b", 2))
	s.Put(docWithID("c", 3))
	s.Put(docWithID("d", 4)) // evicts a — the oldest — not anything newer

	if _, ok := s.Get("a"); ok {
		t.Error("oldest trace a survived eviction")
	}
	for _, id := range []string{"b", "c", "d"} {
		if _, ok := s.Get(id); !ok {
			t.Errorf("trace %s evicted out of order", id)
		}
	}
	if s.Len() != 3 {
		t.Errorf("len = %d", s.Len())
	}

	// Summaries list newest first.
	sums := s.Summaries()
	if len(sums) != 3 || sums[0].TraceID != "d" || sums[1].TraceID != "c" || sums[2].TraceID != "b" {
		t.Errorf("summaries order = %+v", sums)
	}

	// Re-putting an existing ID replaces in place without consuming a slot
	// or refreshing its eviction position.
	s.Put(docWithID("b", 20))
	if s.Len() != 3 {
		t.Errorf("dup put changed len to %d", s.Len())
	}
	got, ok := s.Get("b")
	if !ok || got.StartUnixNs != 20 {
		t.Errorf("dup put did not replace: %+v ok=%v", got, ok)
	}
	s.Put(docWithID("e", 5)) // b is still oldest → evicted
	if _, ok := s.Get("b"); ok {
		t.Error("dup put refreshed eviction position")
	}
}

func TestStoreDefaultCap(t *testing.T) {
	if NewStore(0).Cap() != DefaultStoreCap {
		t.Error("cap 0 did not default")
	}
	if NewStore(-5).Cap() != DefaultStoreCap {
		t.Error("negative cap did not default")
	}
}
