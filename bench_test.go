package gcassert_test

// Benchmark harness regenerating the paper's evaluation (one benchmark per
// figure, plus the ablations listed in DESIGN.md). These are testing.B
// views of the same measurements `cmd/gcassert-bench` prints as tables:
//
//	BenchmarkFigure2RunTime       — total & mutator time, Base vs Infrastructure
//	BenchmarkFigure3GCTime        — GC time, Base vs Infrastructure
//	BenchmarkFigure4AssertRunTime — total time with assertions (db, pseudojbb)
//	BenchmarkFigure5AssertGCTime  — GC time with assertions (db, pseudojbb)
//	BenchmarkAblation*            — path tracking, ownee scaling, generational
//
// Every sub-benchmark reports gc-ms/op and mutator-ms/op metrics so the
// figures' ratios can be read directly from `go test -bench`.

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"gcassert"
	"gcassert/internal/bench"
	"gcassert/internal/bench/workloads"
	"gcassert/internal/fleet"
)

// runWorkloadBench measures one workload in one mode under testing.B.
func runWorkloadBench(b *testing.B, w bench.Workload, mode bench.Mode) {
	b.Helper()
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      w.Heap,
		Infrastructure: mode != bench.Base,
	})
	run := w.New(vm, mode == bench.WithAssertions)
	run(0) // warmup iteration, as in the paper's methodology
	gc0 := vm.GCStats().TotalGCTime
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(i + 1)
	}
	b.StopTimer()
	gcTime := vm.GCStats().TotalGCTime - gc0
	gcMS := float64(gcTime.Milliseconds()) / float64(b.N)
	b.ReportMetric(gcMS, "gc-ms/op")
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N)-gcMS, "mutator-ms/op")
}

// BenchmarkFigure2RunTime regenerates Figure 2: run-time overhead of the
// assertion infrastructure across the full suite (compare Base vs
// Infrastructure ns/op and mutator-ms/op).
func BenchmarkFigure2RunTime(b *testing.B) {
	for _, w := range workloads.All() {
		for _, mode := range []bench.Mode{bench.Base, bench.Infra} {
			w, mode := w, mode
			b.Run(w.Name+"/"+mode.String(), func(b *testing.B) {
				runWorkloadBench(b, w, mode)
			})
		}
	}
}

// BenchmarkFigure3GCTime regenerates Figure 3: GC-time overhead of the
// infrastructure (compare gc-ms/op between modes). It measures a GC-heavy
// subset so the GC signal dominates.
func BenchmarkFigure3GCTime(b *testing.B) {
	for _, name := range []string{"bloat", "fop", "hsqldb", "xalan", "pmd", "pseudojbb"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, mode := range []bench.Mode{bench.Base, bench.Infra} {
			w, mode := w, mode
			b.Run(w.Name+"/"+mode.String(), func(b *testing.B) {
				runWorkloadBench(b, w, mode)
			})
		}
	}
}

// BenchmarkFigure4AssertRunTime regenerates Figure 4: total run time of
// _209_db and pseudojbb with their paper instrumentation, vs Base and
// Infrastructure.
func BenchmarkFigure4AssertRunTime(b *testing.B) {
	for _, w := range workloads.Asserting() {
		for _, mode := range []bench.Mode{bench.Base, bench.Infra, bench.WithAssertions} {
			w, mode := w, mode
			b.Run(w.Name+"/"+mode.String(), func(b *testing.B) {
				runWorkloadBench(b, w, mode)
			})
		}
	}
}

// BenchmarkFigure5AssertGCTime regenerates Figure 5: the GC-time view of the
// same runs (read the gc-ms/op metric).
func BenchmarkFigure5AssertGCTime(b *testing.B) {
	for _, w := range workloads.Asserting() {
		for _, mode := range []bench.Mode{bench.Base, bench.WithAssertions} {
			w, mode := w, mode
			b.Run(w.Name+"/"+mode.String(), func(b *testing.B) {
				runWorkloadBench(b, w, mode)
			})
		}
	}
}

// buildList allocates a linked list of n nodes rooted in fr slot 0 and
// returns its head.
func buildList(vm *gcassert.Runtime, th *gcassert.Thread, fr *gcassert.Frame, node gcassert.TypeID, n int) gcassert.Ref {
	var head gcassert.Ref
	for i := 0; i < n; i++ {
		nd := th.New(node)
		vm.SetRef(nd, 0, head)
		head = nd
		fr.Set(0, head)
	}
	return head
}

// BenchmarkAblationPathTracking isolates the infrastructure's main cost: a
// full-heap trace of a fixed 200k-object list, with and without the
// path-tracking worklist discipline (Ablation B in DESIGN.md).
func BenchmarkAblationPathTracking(b *testing.B) {
	for _, infra := range []bool{false, true} {
		name := "Base"
		if infra {
			name = "Infrastructure"
		}
		infra := infra
		b.Run(name, func(b *testing.B) {
			vm := gcassert.New(gcassert.Options{HeapBytes: 32 << 20, Infrastructure: infra})
			node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
			th := vm.NewThread("main")
			fr := th.Push(1)
			buildList(vm, th, fr, node, 200_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vm.Collect()
			}
			b.StopTimer()
			st := vm.GCStats()
			b.ReportMetric(float64(st.MarkTime.Nanoseconds())/float64(st.Collections)/1e6, "mark-ms/gc")
		})
	}
}

// BenchmarkAblationOwneeScaling measures the per-GC ownership-phase cost as
// the registered ownee count grows (Ablation C: the paper's n log n
// membership checking).
func BenchmarkAblationOwneeScaling(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000, 50_000} {
		n := n
		b.Run(fmt.Sprintf("ownees-%d", n), func(b *testing.B) {
			vm := gcassert.New(gcassert.Options{HeapBytes: 64 << 20, Infrastructure: true})
			owner := vm.Define("Owner", gcassert.Field{Name: "elems", Ref: true})
			elem := vm.Define("Elem", gcassert.Field{Name: "data", Ref: true})
			th := vm.NewThread("main")
			fr := th.Push(1)
			o := th.New(owner)
			fr.Set(0, o)
			vm.SetRef(o, 0, th.NewArray(gcassert.TRefArray, n))
			arr := vm.GetRef(o, 0)
			for i := 0; i < n; i++ {
				e := th.New(elem)
				vm.SetRefAt(arr, i, e)
				vm.AssertOwnedBy(o, e)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vm.Collect()
			}
			b.StopTimer()
			st := vm.AssertionStats()
			b.ReportMetric(float64(st.OwneesChecked)/float64(vm.GCStats().Collections), "ownees/gc")
		})
	}
}

// BenchmarkAblationGenerational measures assert-dead detection latency (in
// collections) under the full-heap collector vs the sticky-mark generational
// mode, where assertions are only checked at full collections (Ablation A,
// the paper's §2.2 discussion).
func BenchmarkAblationGenerational(b *testing.B) {
	for _, gen := range []bool{false, true} {
		name := "full-heap"
		if gen {
			name = "generational"
		}
		gen := gen
		b.Run(name, func(b *testing.B) {
			totalGCs := 0.0
			for i := 0; i < b.N; i++ {
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
				fr := th.Push(2)
				leak := th.New(node)
				fr.Set(0, leak)
				vm.AssertDead(leak) // never dies: the violation to detect
				gcs0 := vm.GCStats().Collections + vm.MinorGCStats().Collections
				// Churn until the violation is reported.
				for rep.Len() == 0 {
					cfr := th.Push(1)
					buildList(vm, th, cfr, node, 10_000)
					th.Pop()
				}
				gcs := vm.GCStats().Collections + vm.MinorGCStats().Collections
				totalGCs += float64(gcs - gcs0)
			}
			b.ReportMetric(totalGCs/float64(b.N), "gcs-until-detect")
		})
	}
}

// BenchmarkTelemetryOff verifies the acceptance criterion for the
// observability layer: with telemetry disabled (the default), a full-heap
// collection of a fixed 200k-object list shows exactly the collector's
// pre-existing allocation baseline (2 allocs/op: the escaping Collection
// record and the root-scan closure) — the nil Observer check adds nothing
// to markBase/markInfra. Asserted in-line like BenchmarkCensusOff. Compare
// against BenchmarkTelemetryOn for the enabled-mode cost (one Event plus its
// phase/kind slices per collection).
func BenchmarkTelemetryOff(b *testing.B) {
	for _, infra := range []bool{false, true} {
		name := "Base"
		if infra {
			name = "Infrastructure"
		}
		infra := infra
		b.Run(name, func(b *testing.B) {
			vm := gcassert.New(gcassert.Options{HeapBytes: 32 << 20, Infrastructure: infra})
			node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
			th := vm.NewThread("main")
			fr := th.Push(1)
			buildList(vm, th, fr, node, 200_000)
			vm.Collect() // settle one-time lazy growth before measuring
			b.ReportAllocs()
			allocs := testing.AllocsPerRun(3, func() { vm.Collect() })
			if allocs > 2 {
				b.Fatalf("disabled-telemetry collection allocates %.0f times/op, want <= 2 (baseline)", allocs)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vm.Collect()
			}
		})
	}
}

// BenchmarkTelemetryOn is the enabled-mode counterpart of
// BenchmarkTelemetryOff: same collection, telemetry recording every cycle.
func BenchmarkTelemetryOn(b *testing.B) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      32 << 20,
		Infrastructure: true,
		Telemetry:      true,
	})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	buildList(vm, th, fr, node, 200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Collect()
	}
}

// BenchmarkCensusOff verifies the acceptance criterion for the
// introspection layer: with introspection disabled (the default), a
// full-heap collection of a fixed 200k-object list stays at the collector's
// pre-existing allocation baseline (2 allocs/op: the escaping Collection
// record and the root-scan closure) — the nil OnMark check adds zero
// allocations to the mark hot path. The b.N loop asserts this in-line so
// `go test -bench BenchmarkCensusOff` fails loudly on a regression instead
// of requiring a human to read allocs/op.
func BenchmarkCensusOff(b *testing.B) {
	for _, infra := range []bool{false, true} {
		name := "Base"
		if infra {
			name = "Infrastructure"
		}
		infra := infra
		b.Run(name, func(b *testing.B) {
			vm := gcassert.New(gcassert.Options{HeapBytes: 32 << 20, Infrastructure: infra})
			node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
			th := vm.NewThread("main")
			fr := th.Push(1)
			buildList(vm, th, fr, node, 200_000)
			vm.Collect() // settle one-time lazy growth before measuring
			b.ReportAllocs()
			allocs := testing.AllocsPerRun(3, func() { vm.Collect() })
			if allocs > 2 {
				b.Fatalf("disabled-introspection collection allocates %.0f times/op, want <= 2 (baseline)", allocs)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vm.Collect()
			}
		})
	}
}

// BenchmarkProvenanceOff verifies the acceptance criterion for
// allocation-site provenance: with provenance disabled (the default), the
// allocation fast path performs zero Go allocations — the site==0 literal in
// New and the nil-provenance check in the sweep cost nothing — and a
// full-heap collection stays at the collector's pre-existing 2-allocs/op
// baseline. Asserted in-line like BenchmarkCensusOff so `go test -bench
// BenchmarkProvenanceOff` fails loudly on a regression.
func BenchmarkProvenanceOff(b *testing.B) {
	for _, infra := range []bool{false, true} {
		name := "Base"
		if infra {
			name = "Infrastructure"
		}
		infra := infra
		b.Run(name, func(b *testing.B) {
			vm := gcassert.New(gcassert.Options{HeapBytes: 64 << 20, Infrastructure: infra})
			node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
			th := vm.NewThread("main")
			fr := th.Push(1)
			fr.Set(0, th.New(node)) // settle lazy size-class growth
			if allocs := testing.AllocsPerRun(1000, func() {
				fr.Set(0, th.New(node))
			}); allocs != 0 {
				b.Fatalf("provenance-off allocation path allocates %.2f times/op, want 0", allocs)
			}
			fr.Set(0, gcassert.Nil)
			buildList(vm, th, fr, node, 200_000)
			vm.Collect()
			b.ReportAllocs()
			if allocs := testing.AllocsPerRun(3, func() { vm.Collect() }); allocs > 2 {
				b.Fatalf("provenance-off collection allocates %.0f times/op, want <= 2 (baseline)", allocs)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fr.Set(0, th.New(node))
			}
		})
	}
}

// BenchmarkProvenanceOn measures the enabled modes for the overhead table in
// EXPERIMENTS.md: every allocation recorded (exhaustive) versus 1-in-64
// sampling on the same allocation loop as BenchmarkProvenanceOff.
func BenchmarkProvenanceOn(b *testing.B) {
	modes := []struct {
		name, prov string
		sample     int
	}{
		{"Exhaustive", "exhaustive", 0},
		{"Sampled64", "sampled", 64},
	}
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			vm := gcassert.New(gcassert.Options{
				HeapBytes: 64 << 20, Infrastructure: true,
				Provenance: m.prov, ProvenanceSample: m.sample,
			})
			node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
			th := vm.NewThread("main")
			fr := th.Push(1)
			site := vm.RegisterAllocSite("bench.go:1: new Node")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fr.Set(0, th.NewAt(node, site))
			}
		})
	}
}

// BenchmarkCensusOn is the enabled-mode counterpart: the same collection
// with the census observing every mark. Compare ns/op against
// BenchmarkCensusOff for the census overhead; the snapshot built at GCEnd
// accounts for the extra allocs/op.
func BenchmarkCensusOn(b *testing.B) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 32 << 20, Introspection: true})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	buildList(vm, th, fr, node, 200_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Collect()
	}
	b.StopTimer()
	snap, ok := vm.LatestCensus()
	if !ok || snap.TotalObjects != 200_000 {
		b.Fatalf("census snapshot missing or wrong: %+v", snap)
	}
}

// BenchmarkMicroAlloc measures the allocation fast path.
func BenchmarkMicroAlloc(b *testing.B) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 64 << 20})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr.Set(0, th.New(node))
		if i%10_000 == 0 {
			fr.Set(0, gcassert.Nil)
		}
	}
}

// BenchmarkMicroAssertDead measures the registration cost of assert-dead
// (one header-bit store, per the paper's zero-metadata design).
func BenchmarkMicroAssertDead(b *testing.B) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 16 << 20, Infrastructure: true})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	o := th.New(node)
	fr.Set(0, o)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.AssertDead(o)
	}
}

// BenchmarkMicroAssertOwnedBy measures ownership registration (append +
// map insert; sorting is deferred to GC time).
func BenchmarkMicroAssertOwnedBy(b *testing.B) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 64 << 20, Infrastructure: true})
	owner := vm.Define("Owner", gcassert.Field{Name: "elems", Ref: true})
	elem := vm.Define("Elem", gcassert.Field{Name: "data", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(2)
	o := th.New(owner)
	fr.Set(0, o)
	const pool = 1 << 16
	vm.SetRef(o, 0, th.NewArray(gcassert.TRefArray, pool))
	arr := vm.GetRef(o, 0)
	for i := 0; i < pool; i++ {
		e := th.New(elem)
		vm.SetRefAt(arr, i, e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.AssertOwnedBy(o, vm.RefAt(arr, i%pool))
	}
}

// BenchmarkParallelMark is the parallel-mark worker sweep: the featured
// workloads build a live heap once, then every iteration re-marks the same
// graph at the given width. mark-ms/op isolates the traced phase; compare
// widths to read the speedup (≈1.0 on a single-CPU host — the sweep is
// about scaling headroom, and CI runs it at -benchtime 1x as a smoke test).
// Both configurations are swept: Base marks with no checks, and
// Infrastructure binds the assertion engine's per-worker check shards, as
// the benchmark's paper-db-w2 workload does.
func BenchmarkParallelMark(b *testing.B) {
	for _, name := range []string{"pseudojbb", "_209_db"} {
		w, err := workloads.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, infra := range []bool{false, true} {
			mode := "Base"
			if infra {
				mode = "Infrastructure"
			}
			for _, width := range []int{1, 2, 4, 8} {
				w, infra, width := w, infra, width
				b.Run(fmt.Sprintf("%s/%s/workers=%d", w.Name, mode, width), func(b *testing.B) {
					vm := gcassert.New(gcassert.Options{HeapBytes: w.Heap, Infrastructure: infra})
					run := w.New(vm, false)
					run(0) // build the live heap
					vm.SetMarkWorkers(width)
					vm.Collect() // warm: builds the engine and settles the live set
					var markNs int64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						col := vm.Collect()
						markNs += col.MarkTime.Nanoseconds()
						if col.Workers != width {
							b.Fatalf("collection ran with %d workers, want %d", col.Workers, width)
						}
					}
					b.StopTimer()
					b.ReportMetric(float64(markNs)/1e6/float64(b.N), "mark-ms/op")
				})
			}
		}
	}
}

// BenchmarkAttributionOff verifies the acceptance criterion for the
// cost-attribution layer: with CostAttribution disabled (the default), the
// allocation fast path performs zero Go allocations — the per-thread
// counters sit behind one nil-check — and a full-heap collection stays at
// the collector's pre-existing 2-allocs/op baseline (the cost shards, the
// trigger explainer, and the per-kind timers all hide behind one nil-check
// per phase). Asserted in-line like BenchmarkProvenanceOff so `go test
// -bench BenchmarkAttributionOff` fails loudly on a regression.
func BenchmarkAttributionOff(b *testing.B) {
	for _, infra := range []bool{false, true} {
		name := "Base"
		if infra {
			name = "Infrastructure"
		}
		infra := infra
		b.Run(name, func(b *testing.B) {
			vm := gcassert.New(gcassert.Options{HeapBytes: 64 << 20, Infrastructure: infra})
			node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
			th := vm.NewThread("main")
			fr := th.Push(1)
			fr.Set(0, th.New(node)) // settle lazy size-class growth
			if allocs := testing.AllocsPerRun(1000, func() {
				fr.Set(0, th.New(node))
			}); allocs != 0 {
				b.Fatalf("attribution-off allocation path allocates %.2f times/op, want 0", allocs)
			}
			fr.Set(0, gcassert.Nil)
			buildList(vm, th, fr, node, 200_000)
			vm.Collect()
			b.ReportAllocs()
			if allocs := testing.AllocsPerRun(3, func() { vm.Collect() }); allocs > 2 {
				b.Fatalf("attribution-off collection allocates %.0f times/op, want <= 2 (baseline)", allocs)
			}
			if _, ok := vm.Pressure(); ok {
				b.Fatal("Pressure() reports stats on an attribution-off runtime")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vm.Collect()
			}
		})
	}
}

// BenchmarkAttributionOn is the enabled-mode counterpart for the overhead
// table in EXPERIMENTS.md: the same collection with per-kind cost
// accounting, the trigger explainer, and per-thread pressure counters all
// live. It self-checks the enabled-mode acceptance criterion: every
// collection carries per-kind costs and a non-empty trigger explanation.
func BenchmarkAttributionOn(b *testing.B) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes:       64 << 20,
		Infrastructure:  true,
		CostAttribution: true,
	})
	node := vm.Define("Node", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	head := buildList(vm, th, fr, node, 200_000)
	vm.AssertUnshared(head)
	vm.Collect()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Collect()
	}
	b.StopTimer()
	col := vm.Collect()
	if len(col.AssertCost) == 0 {
		b.Fatal("attribution-on collection carries no per-kind costs")
	}
	if col.Trigger.Why == "" {
		b.Fatal("attribution-on collection carries no trigger explanation")
	}
}

// BenchmarkFleetExportOff verifies the acceptance criterion for the fleet
// exporter: with FleetURL unset (the default), the exporter does not exist
// and adds zero allocations to the allocation path and nothing beyond the
// collection baseline. Asserted in-line like BenchmarkProvenanceOff so
// `go test -bench BenchmarkFleetExportOff` fails loudly on a regression.
func BenchmarkFleetExportOff(b *testing.B) {
	vm := gcassert.New(gcassert.Options{HeapBytes: 64 << 20, Infrastructure: true})
	node := vm.Define("FNode", gcassert.Field{Name: "next", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	fr.Set(0, th.New(node)) // settle lazy size-class growth
	if allocs := testing.AllocsPerRun(1000, func() {
		fr.Set(0, th.New(node))
	}); allocs != 0 {
		b.Fatalf("fleet-off allocation path allocates %.2f times/op, want 0", allocs)
	}
	if vm.FleetExporter() != nil {
		b.Fatal("FleetExporter() exists on a fleet-off runtime")
	}
	fr.Set(0, gcassert.Nil)
	buildList(vm, th, fr, node, 200_000)
	vm.Collect()
	b.ReportAllocs()
	if allocs := testing.AllocsPerRun(3, func() { vm.Collect() }); allocs > 2 {
		b.Fatalf("fleet-off collection allocates %.0f times/op, want <= 2 (baseline)", allocs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm.Collect()
	}
}

// BenchmarkFleetExportOn measures what exporting costs the collection when
// it is on: census introspection plus sealing/enqueueing an envelope every
// FleetEvery collections, shipped to a local collector on the exporter's
// background goroutine. The control sub-benchmark runs the identical
// configuration minus the exporter, so the delta is the export itself (the
// 200k-node list matches BenchmarkFleetExportOff).
func BenchmarkFleetExportOn(b *testing.B) {
	store, err := fleet.OpenStore(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(fleet.NewServer(store).Handler())
	defer ts.Close()

	bench := func(b *testing.B, url string, every int) {
		vm := gcassert.New(gcassert.Options{
			HeapBytes: 64 << 20, Infrastructure: true, Introspection: true,
			FleetURL: url, FleetEvery: every, InstanceID: "bench",
		})
		node := vm.Define("FNode", gcassert.Field{Name: "next", Ref: true})
		th := vm.NewThread("main")
		fr := th.Push(1)
		buildList(vm, th, fr, node, 200_000)
		vm.Collect()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm.Collect()
		}
		b.StopTimer()
		vm.CloseFleet()
	}
	b.Run("control-introspection-only", func(b *testing.B) { bench(b, "", 0) })
	b.Run("every=1", func(b *testing.B) { bench(b, ts.URL, 1) })
	b.Run("every=8", func(b *testing.B) { bench(b, ts.URL, 8) })
}
