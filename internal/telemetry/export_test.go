package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"gcassert/internal/collector"
)

// testEvents builds a deterministic two-collection trace anchored at start.
func testEvents(start time.Time) []Event {
	t0 := start.UnixNano()
	return []Event{
		{
			Seq: 0, Reason: "alloc-failure", StartUnixNs: t0 + 1_000_000, TotalNs: 3_000_000,
			Phases: []collector.PhaseSpan{
				{Phase: "mark", StartUnixNs: t0 + 1_000_000, DurNs: 2_000_000},
				{Phase: "sweep", StartUnixNs: t0 + 3_000_000, DurNs: 1_000_000},
			},
			RootsScanned: 10, ObjectsMarked: 100, ObjectsFreed: 20, ObjectsLive: 100, WordsFreed: 80,
		},
		{
			Seq: 1, Reason: "forced", StartUnixNs: t0 + 10_000_000, TotalNs: 6_000_000,
			Phases: []collector.PhaseSpan{
				{Phase: "ownership", StartUnixNs: t0 + 10_000_000, DurNs: 1_000_000},
				{Phase: "mark", StartUnixNs: t0 + 11_000_000, DurNs: 4_000_000},
				{Phase: "sweep", StartUnixNs: t0 + 15_000_000, DurNs: 1_000_000},
			},
			RootsScanned: 12, ObjectsMarked: 150, ObjectsFreed: 5, ObjectsLive: 150, WordsFreed: 20,
			Kinds: []collector.KindCount{{Kind: "assert-dead", Checks: 3, Violations: 1}},
		},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	events := testEvents(start)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	var got []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v", len(got)+1, err)
		}
		got = append(got, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, events)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	events := testEvents(start)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if tr.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", tr.DisplayTimeUnit)
	}

	var gcSlices, phaseSlices []int
	for i, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("event %d (%s): negative ts/dur %v/%v", i, ev.Name, ev.Ts, ev.Dur)
			}
			switch ev.Cat {
			case "gc":
				gcSlices = append(gcSlices, i)
			case "gc-phase":
				phaseSlices = append(phaseSlices, i)
			default:
				t.Errorf("event %d: unexpected cat %q", i, ev.Cat)
			}
		default:
			t.Errorf("event %d: unexpected ph %q", i, ev.Ph)
		}
	}
	if len(gcSlices) != len(events) {
		t.Fatalf("%d gc slices, want %d", len(gcSlices), len(events))
	}
	wantPhases := 0
	for i := range events {
		wantPhases += len(events[i].Phases)
	}
	if len(phaseSlices) != wantPhases {
		t.Fatalf("%d phase slices, want %d", len(phaseSlices), wantPhases)
	}

	// GC slice timestamps are monotonic, relative to the first event, and
	// durations match the source events (µs units).
	prev := -1.0
	for n, i := range gcSlices {
		ev := tr.TraceEvents[i]
		if ev.Ts <= prev && n > 0 {
			t.Errorf("gc slice %d: ts %v not after %v", n, ev.Ts, prev)
		}
		prev = ev.Ts
		src := &events[n]
		wantTs := float64(src.StartUnixNs-events[0].StartUnixNs) / 1e3
		if ev.Ts != wantTs {
			t.Errorf("gc slice %d: ts = %v µs, want %v", n, ev.Ts, wantTs)
		}
		if want := float64(src.TotalNs) / 1e3; ev.Dur != want {
			t.Errorf("gc slice %d: dur = %v µs, want %v", n, ev.Dur, want)
		}
		if ev.Args["reason"] != src.Reason {
			t.Errorf("gc slice %d: reason arg = %v, want %s", n, ev.Args["reason"], src.Reason)
		}
	}
	// The second event's assertion summary shows up on its slice.
	if args := tr.TraceEvents[gcSlices[1]].Args; args["assert-dead"] != "3 checks, 1 violations" {
		t.Errorf("kind summary = %v", args["assert-dead"])
	}
}

func TestGoTraceLine(t *testing.T) {
	start := time.Unix(1_000_000, 0)
	events := testEvents(start)
	line := GoTraceLine(&events[1], start, 0.1)
	want := "gc 2 @0.010s 10%: 1.00+4.00+1.00 ms own+mark+sweep, 150 marked, 5 freed, 150 live (forced)"
	if line != want {
		t.Errorf("GoTraceLine:\ngot  %s\nwant %s", line, want)
	}

	var buf bytes.Buffer
	if err := WriteGoTrace(&buf, events, start); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want 3 (two events plus the pause-summary footer)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "gc 1 @0.001s ") {
		t.Errorf("line 1 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "gc 2 @0.010s ") {
		t.Errorf("line 2 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "# pause summary: ") {
		t.Errorf("line 3 = %q, want the pause-summary footer", lines[2])
	}
}
