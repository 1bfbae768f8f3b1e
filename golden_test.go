package gcassert_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"gcassert"
)

// The event fixtures under testdata/ were captured from the two workloads
// below. They pin the JSONL projection of the per-collection record: the
// decoded events must re-encode to the same JSON, a fresh run must emit the
// same set of keys, and the deterministic parts of every event — counts,
// phases, per-kind activity, cost check counts — must repeat exactly. The
// generational fixture includes minor collections whose sweep verifies
// asserted-dead objects, so their assert-dead rows are non-zero.
var goldenEventRuns = []struct {
	file string
	opts gcassert.Options
}{
	{"events_full.jsonl", gcassert.Options{
		HeapBytes: 256 << 10, Infrastructure: true, Telemetry: true,
		CostAttribution: true, Workers: 2,
	}},
	{"events_gen.jsonl", gcassert.Options{
		HeapBytes: 256 << 10, Infrastructure: true, Telemetry: true,
		CostAttribution: true, Generational: true, MinorRatio: 3,
	}},
}

// goldenWorkload is a deterministic single-thread workload touching every
// assertion kind: a rooted asserted-dead leak, short-lived asserted-dead
// garbage, an instance limit, unshared list heads and owned items.
func goldenWorkload(vm *gcassert.Runtime) {
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	box := vm.Define("Box", gcassert.Field{Name: "item", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(3)
	owner := th.New(box)
	fr.Set(0, owner)
	vm.AssertInstances(box, 1)
	leak := th.New(node)
	fr.Set(2, leak)
	vm.AssertDead(leak)
	for round := 0; round < 10; round++ {
		head := gcassert.Nil
		for i := 0; i < 10_000; i++ {
			n := th.New(node)
			vm.SetRef(n, 0, head)
			head = n
			fr.Set(1, head)
			if i%50 == 0 {
				vm.AssertDead(th.New(node))
			}
		}
		vm.AssertUnshared(head)
		item := th.New(node)
		vm.SetRef(owner, 0, item)
		vm.AssertOwnedBy(owner, item)
		fr.Set(1, gcassert.Nil)
	}
	vm.Collect()
}

// stableEvent is the run-to-run deterministic part of a GC event.
type stableEvent struct {
	Seq                                           uint64
	Reason                                        string
	Roots, Marked, Freed, Live, WordsFreed, Works int
	Fallback                                      string
	Phases                                        []string
	Kinds                                         []gcassert.KindCount
	CostChecks                                    map[string]uint64
	Threads                                       []gcassert.ThreadAlloc
}

func stable(ev *gcassert.GCEvent) stableEvent {
	s := stableEvent{
		Seq: ev.Seq, Reason: ev.Reason, Roots: ev.RootsScanned, Marked: ev.ObjectsMarked,
		Freed: ev.ObjectsFreed, Live: ev.ObjectsLive, WordsFreed: ev.WordsFreed,
		Works: ev.Workers, Fallback: ev.Fallback, Kinds: ev.Kinds, Threads: ev.Threads,
	}
	for _, p := range ev.Phases {
		s.Phases = append(s.Phases, p.Phase)
	}
	for _, c := range ev.Costs {
		if s.CostChecks == nil {
			s.CostChecks = map[string]uint64{}
		}
		s.CostChecks[c.Kind] = c.Checks
	}
	return s
}

// keyPaths adds every object key path in a decoded JSON value to set.
func keyPaths(v any, prefix string, set map[string]bool) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			set[prefix+"."+k] = true
			keyPaths(e, prefix+"."+k, set)
		}
	case []any:
		for _, e := range x {
			keyPaths(e, prefix+"[]", set)
		}
	}
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// readGoldenEvents returns the fixture's raw JSONL lines.
func readGoldenEvents(t *testing.T, file string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if len(lines) == 0 {
		t.Fatalf("%s: no events", file)
	}
	return lines
}

func decodeAny(t *testing.T, raw []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestGoldenEventsReencode decodes every fixture event into a GCEvent and
// re-encodes it: the result must be the same JSON document.
func TestGoldenEventsReencode(t *testing.T) {
	for _, run := range goldenEventRuns {
		for i, raw := range readGoldenEvents(t, run.file) {
			var ev gcassert.GCEvent
			if err := json.Unmarshal(raw, &ev); err != nil {
				t.Fatalf("%s event %d: %v", run.file, i, err)
			}
			again, err := json.Marshal(&ev)
			if err != nil {
				t.Fatal(err)
			}
			if want, got := decodeAny(t, raw), decodeAny(t, again); !reflect.DeepEqual(want, got) {
				t.Fatalf("%s event %d re-encodes differently:\nfixture: %s\nnow:     %s", run.file, i, raw, again)
			}
		}
	}
}

// TestGoldenEventsReproduce reruns each fixture's workload and compares the
// fresh event stream with the fixture: same key set, and the same
// deterministic content event by event.
func TestGoldenEventsReproduce(t *testing.T) {
	for _, run := range goldenEventRuns {
		t.Run(run.file, func(t *testing.T) {
			lines := readGoldenEvents(t, run.file)
			vm := gcassert.New(run.opts)
			goldenWorkload(vm)
			var buf bytes.Buffer
			if err := vm.Telemetry().WriteJSONL(&buf); err != nil {
				t.Fatal(err)
			}
			fresh := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
			if len(fresh) != len(lines) {
				t.Fatalf("%d events, fixture has %d", len(fresh), len(lines))
			}
			wantKeys, gotKeys := map[string]bool{}, map[string]bool{}
			sawMinorDead := false
			for i := range lines {
				keyPaths(decodeAny(t, lines[i]), "", wantKeys)
				keyPaths(decodeAny(t, fresh[i]), "", gotKeys)
				var want, got gcassert.GCEvent
				if err := json.Unmarshal(lines[i], &want); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(fresh[i], &got); err != nil {
					t.Fatal(err)
				}
				if ws, gs := stable(&want), stable(&got); !reflect.DeepEqual(ws, gs) {
					t.Errorf("event %d differs from fixture:\nfixture: %+v\nnow:     %+v", i, ws, gs)
				}
				if run.opts.Generational && want.Reason == string(gcassert.ReasonAllocFailure) {
					for _, k := range want.Kinds {
						if k.Kind == gcassert.KindDead.String() && k.Checks > 0 {
							sawMinorDead = true
						}
					}
				}
			}
			if w, g := sortedKeys(wantKeys), sortedKeys(gotKeys); !reflect.DeepEqual(w, g) {
				t.Errorf("event JSON keys changed:\nfixture: %v\nnow:     %v", w, g)
			}
			if run.opts.Generational && !sawMinorDead {
				t.Error("generational fixture has no minor collection with assert-dead checks")
			}
		})
	}
}

// The record and both projections share one type per row: these
// assignments only compile while that holds.
var _ = func(col gcassert.Collection, ev gcassert.GCEvent, cy gcassert.FlightCycle) {
	var c gcassert.AssertCost = ev.Costs[0]
	c = cy.AssertCost[0]
	c = col.AssertCost[0]
	var p gcassert.PhaseSpan = ev.Phases[0]
	p = cy.Phases[0]
	p = col.Phases[0]
	var k gcassert.KindCount = ev.Kinds[0]
	k = cy.Kinds[0]
	k = col.Kinds[0]
	var w gcassert.WorkerMark = ev.PerWorker[0]
	w = cy.PerWorker[0]
	w = col.PerWorker[0]
	_, _, _, _ = c, p, k, w
}
