package loadlab

import (
	"strings"
	"testing"
	"time"

	"gcassert/internal/collector"
	"gcassert/internal/telemetry"
)

func TestRunValidatesOptions(t *testing.T) {
	if _, err := Run(Options{RPS: 0, Requests: 10}, func(int) {}); err == nil {
		t.Error("RPS 0 should be rejected")
	}
	if _, err := Run(Options{RPS: 100, Requests: 0}, func(int) {}); err == nil {
		t.Error("Requests 0 should be rejected")
	}
}

func TestRunOpenLoopSchedule(t *testing.T) {
	// A fast op at a modest rate: arrivals must follow the fixed schedule,
	// every request runs, and queue wait stays ~0.
	const n, rps = 40, 2000.0
	var calls int
	rep, err := Run(Options{RPS: rps, Requests: n, Capture: true}, func(seq int) {
		if seq != calls {
			t.Fatalf("op called out of order: got seq %d, want %d", seq, calls)
		}
		calls++
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != n || len(rep.Records) != n {
		t.Fatalf("ran %d requests, recorded %d, want %d", calls, len(rep.Records), n)
	}
	interval := int64(float64(time.Second) / rps)
	for i, r := range rep.Records {
		want := rep.StartUnixNs + int64(i)*interval
		if diff := r.ArrivalUnixNs - want; diff < -1 || diff > 1 {
			t.Fatalf("request %d arrival %d, want %d (fixed schedule)", i, r.ArrivalUnixNs, want)
		}
		if r.StartUnixNs < r.ArrivalUnixNs {
			t.Fatalf("request %d started before its arrival", i)
		}
		if r.EndUnixNs < r.StartUnixNs {
			t.Fatalf("request %d ended before it started", i)
		}
	}
	if got := rep.Latency.Count(); got != n {
		t.Fatalf("latency histogram holds %d observations, want %d", got, n)
	}
}

func TestRunQueueingUnderOverload(t *testing.T) {
	// Service time (1ms) exceeds the arrival interval (200µs): the open
	// loop must keep arrivals on schedule and charge the backlog to queue
	// wait — the coordinated-omission case a closed loop would hide.
	const n = 20
	rep, err := Run(Options{RPS: 5000, Requests: n, Capture: true}, func(int) {
		time.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	last := rep.Records[n-1]
	// By request n-1 the service is ~n×(1ms − 0.2ms) behind schedule.
	if q := last.QueueNs(); q < int64(5*time.Millisecond) {
		t.Errorf("last request queued %v, want ≥ 5ms under 5× overload", time.Duration(q))
	}
	if last.LatencyNs() < last.ServiceNs()+last.QueueNs() {
		t.Error("latency must cover service + queue")
	}
	// Queue wait must be monotonically growing early in an overloaded run.
	if rep.Records[10].QueueNs() <= rep.Records[2].QueueNs() {
		t.Error("queue wait should grow while overloaded")
	}
}

// synthetic events/records for attribution arithmetic, nanosecond-exact.
func mkEvent(seq uint64, start, total int64, reason string, costs ...collector.AssertCost) telemetry.Event {
	return telemetry.Event{Seq: seq, Reason: reason, StartUnixNs: start, TotalNs: total, Costs: costs}
}

func TestAttributeSyntheticOverlap(t *testing.T) {
	rep := &Report{
		RPS: 100, Requests: 3,
		StartUnixNs: 0, EndUnixNs: 10_000,
		Records: []Record{
			// Request 0: arrives 0, runs [0, 3000).
			{Seq: 0, ArrivalUnixNs: 0, StartUnixNs: 0, EndUnixNs: 3000},
			// Request 1: arrives 1000, queued until 3000, runs to 3900.
			{Seq: 1, ArrivalUnixNs: 1000, StartUnixNs: 3000, EndUnixNs: 3900},
			// Request 2: arrives 2000, queued until 3900, runs to 6000.
			{Seq: 2, ArrivalUnixNs: 2000, StartUnixNs: 3900, EndUnixNs: 6000},
		},
	}
	events := []telemetry.Event{
		// Pause nested in request 0's service window [1500, 2500): also
		// overlaps the queue waits of requests 1 (from 1500) and 2 (from
		// 2000).
		mkEvent(0, 1500, 1000, "alloc-failure",
			collector.AssertCost{Kind: "assert-ownedby", Ns: 600},
			collector.AssertCost{Kind: "assert-dead", Ns: 100}),
		// Pause nested in request 2's service window [4500, 4700).
		mkEvent(1, 4500, 200, "forced"),
		// Pause outside the run window entirely: ignored.
		mkEvent(2, 20_000, 500, "forced"),
	}

	at := Attribute(rep, events, 2)
	if at.Collections != 2 {
		t.Fatalf("collections = %d, want 2 (one outside the run)", at.Collections)
	}
	if at.PauseTotalNs != 1200 {
		t.Errorf("pause total = %d, want 1200", at.PauseTotalNs)
	}
	if at.ServicePauseNs != 1200 {
		t.Errorf("service overlap = %d, want 1200 (both pauses nested)", at.ServicePauseNs)
	}
	// Queue overlap: pause 0 delays request 1 for its full 1000ns and
	// request 2 for [2000, 2500) = 500ns.
	if at.QueuePauseNs != 1500 {
		t.Errorf("queue overlap = %d, want 1500", at.QueuePauseNs)
	}
	if len(at.ByReason) != 2 || at.ByReason[0].Reason != "alloc-failure" || at.ByReason[0].Ns != 1000 {
		t.Errorf("by-reason = %+v, want alloc-failure 1000ns first", at.ByReason)
	}
	// Pause 0 is fully absorbed (frac 1.0): kinds keep their measured time.
	if len(at.ByKind) != 2 || at.ByKind[0].Kind != "assert-ownedby" || at.ByKind[0].Ns != 600 {
		t.Errorf("by-kind = %+v, want assert-ownedby 600ns first", at.ByKind)
	}

	// Slowest: request 2 (latency 4000) then request 0 (3000).
	if len(at.Slowest) != 2 || at.Slowest[0].Seq != 2 || at.Slowest[1].Seq != 0 {
		t.Fatalf("slowest = %+v, want requests 2 then 0", at.Slowest)
	}
	s2 := at.Slowest[0]
	if s2.ServicePauseNs != 200 || s2.QueuePauseNs != 500 {
		t.Errorf("request 2 pause split = %d/%d, want 200 service / 500 queue", s2.ServicePauseNs, s2.QueuePauseNs)
	}
	if len(s2.Pauses) != 2 {
		t.Fatalf("request 2 pause hits = %d, want 2 (one queued, one in-service)", len(s2.Pauses))
	}
	if s2.Pauses[0].QueueNs != 500 || s2.Pauses[0].ServiceNs != 0 {
		t.Errorf("hit 0 = %+v, want 500ns queued", s2.Pauses[0])
	}
	if s2.Pauses[1].ServiceNs != 200 || s2.Pauses[1].Reason != "forced" {
		t.Errorf("hit 1 = %+v, want 200ns in-service forced", s2.Pauses[1])
	}
	s0 := at.Slowest[1]
	if len(s0.Pauses) != 1 || s0.Pauses[0].DominantKind != "assert-ownedby" {
		t.Errorf("request 0 hits = %+v, want one dominated by assert-ownedby", s0.Pauses)
	}
	if share := s0.Pauses[0].DominantShare; share < 0.85 || share > 0.86 {
		t.Errorf("dominant share = %v, want 600/700", share)
	}
}

func TestWriteReportRendersAttribution(t *testing.T) {
	rep := &Report{RPS: 100, Requests: 1, StartUnixNs: 0, EndUnixNs: int64(time.Second),
		Records: []Record{{Seq: 0, ArrivalUnixNs: 0, StartUnixNs: 0, EndUnixNs: 5_000_000}}}
	rep.Latency.Observe(5 * time.Millisecond)
	rep.Service.Observe(5 * time.Millisecond)
	rep.Queue.Observe(0)
	at := Attribute(rep, []telemetry.Event{
		mkEvent(0, 1_000_000, 3_000_000, "alloc-failure",
			collector.AssertCost{Kind: "assert-ownedby", Ns: 2_000_000}),
	}, 1)
	var b strings.Builder
	WriteReport(&b, rep, at)
	out := b.String()
	for _, want := range []string{"p999", "by trigger:", "alloc-failure", "by kind:", "assert-ownedby", "slowest requests:"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWriteReportCaptureOff(t *testing.T) {
	rep := &Report{RPS: 100, Requests: 5, StartUnixNs: 0, EndUnixNs: int64(time.Second)}
	var b strings.Builder
	WriteReport(&b, rep, nil)
	if !strings.Contains(b.String(), "not captured") {
		t.Errorf("capture-off report should say so:\n%s", b.String())
	}
}
