package gcassert_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"gcassert"
	"gcassert/internal/heap"
)

// diffResult summarizes one VM's run for differential comparison.
type diffResult struct {
	live       []heap.Addr // sorted post-sweep live addresses per round
	liveWords  []uint64
	marked     []int
	violations []string // sorted violation signatures (kind|type|object|gc)
	raw        []gcassert.Violation
}

// runDiffWorkload drives one VM through a deterministic randomized workload
// of allocation, mutation, assertion registration, and collection. Every VM
// given the same seed performs the identical operation sequence, so results
// are comparable address-for-address.
func runDiffWorkload(t *testing.T, seed int64, workers int) diffResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	rep := &gcassert.CollectingReporter{}
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      4 << 20,
		Infrastructure: true,
		Reporter:       rep,
		Workers:        workers,
	})
	node := vm.Define("Node",
		gcassert.Field{Name: "a", Ref: true},
		gcassert.Field{Name: "b", Ref: true},
		gcassert.Field{Name: "v"})
	vm.AssertInstances(node, 150) // low enough to trip in most rounds
	th := vm.NewThread("main")
	fr := th.Push(24)

	var res diffResult
	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			var a gcassert.Ref
			switch rng.Intn(3) {
			case 0:
				a = th.New(node)
			case 1:
				a = th.NewArray(gcassert.TRefArray, rng.Intn(12))
			default:
				a = th.NewArray(gcassert.TWordArray, rng.Intn(32))
			}
			fr.Set(rng.Intn(24), a)
			for j := 0; j < 24; j++ {
				src := fr.Get(j)
				if src == gcassert.Nil || rng.Intn(8) != 0 {
					continue
				}
				switch vm.Space().TypeOf(src) {
				case node:
					vm.SetRef(src, rng.Intn(2), a)
				case gcassert.TRefArray:
					if n := vm.ArrayLen(src); n > 0 {
						vm.SetRefAt(src, rng.Intn(n), a)
					}
				}
			}
		}
		// Register assertions on random rooted objects. Some will hold and
		// some will trip — both outcomes must be identical across widths.
		for j := 0; j < 24; j++ {
			a := fr.Get(j)
			if a == gcassert.Nil {
				continue
			}
			switch rng.Intn(6) {
			case 0:
				vm.AssertDead(a)
				if rng.Intn(2) == 0 {
					fr.Set(j, gcassert.Nil) // honest: may actually die
				}
			case 1:
				vm.AssertUnshared(a)
			case 2:
				if o := fr.Get(rng.Intn(24)); o != gcassert.Nil && o != a {
					vm.AssertOwnedBy(o, a)
				}
			}
		}
		for j := 0; j < 24; j++ {
			if rng.Intn(3) == 0 {
				fr.Set(j, gcassert.Nil)
			}
		}
		col := vm.Collect()
		if workers > 1 && col.Workers != workers {
			t.Fatalf("seed %d round %d: collection ran with %d workers, want %d",
				seed, round, col.Workers, workers)
		}
		res.marked = append(res.marked, col.ObjectsMarked)
		res.liveWords = append(res.liveWords, vm.HeapStats().LiveWords)
		vm.Space().ForEachObject(func(a gcassert.Ref) bool {
			res.live = append(res.live, a)
			return true
		})
		res.live = append(res.live, heap.Nil) // round separator
	}
	res.raw = rep.Violations()
	for i := range res.raw {
		v := &res.raw[i]
		res.violations = append(res.violations,
			fmt.Sprintf("%s|%s|%#x|gc%d", v.Kind, v.TypeName, uint32(v.Object), v.GC))
	}
	sort.Strings(res.violations)
	return res
}

// TestParallelMarkDifferential is the subsystem's core equivalence property:
// for random workloads with assertions armed, parallel marking at any width
// must produce the same live set, the same live words, the same mark counts,
// and the same violation multiset as the sequential reference marker.
// Violation *ordering* may differ (parallel reports are sorted by kind and
// address, sequential reports follow DFS-encounter order), which is why the
// comparison is over sorted signatures.
func TestParallelMarkDifferential(t *testing.T) {
	prop := func(seed int64) bool {
		want := runDiffWorkload(t, seed, 1)
		for _, workers := range []int{2, 4, 8} {
			got := runDiffWorkload(t, seed, workers)
			if len(got.live) != len(want.live) {
				t.Logf("seed %d workers %d: %d live entries, sequential %d",
					seed, workers, len(got.live), len(want.live))
				return false
			}
			for i := range want.live {
				if got.live[i] != want.live[i] {
					t.Logf("seed %d workers %d: live[%d] = %#x, sequential %#x",
						seed, workers, i, uint32(got.live[i]), uint32(want.live[i]))
					return false
				}
			}
			for i := range want.liveWords {
				if got.liveWords[i] != want.liveWords[i] || got.marked[i] != want.marked[i] {
					t.Logf("seed %d workers %d round %d: liveWords/marked %d/%d, sequential %d/%d",
						seed, workers, i, got.liveWords[i], got.marked[i], want.liveWords[i], want.marked[i])
					return false
				}
			}
			if len(got.violations) != len(want.violations) {
				t.Logf("seed %d workers %d: %d violations, sequential %d\npar: %v\nseq: %v",
					seed, workers, len(got.violations), len(want.violations), got.violations, want.violations)
				return false
			}
			for i := range want.violations {
				if got.violations[i] != want.violations[i] {
					t.Logf("seed %d workers %d: violation[%d] = %q, sequential %q",
						seed, workers, i, got.violations[i], want.violations[i])
					return false
				}
			}
			// Parallel reports must carry complete root-to-object paths
			// reconstructed at merge time.
			for i := range got.raw {
				v := &got.raw[i]
				if v.Kind == gcassert.KindInstances {
					continue // no path by design, as in the sequential reports
				}
				if v.Root == "" {
					t.Logf("seed %d workers %d: violation %d has no root", seed, workers, i)
					return false
				}
				if len(v.Path) == 0 || v.Path[len(v.Path)-1].Addr != v.Object {
					t.Logf("seed %d workers %d: violation %d path does not reach object", seed, workers, i)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelForceDeadEquivalence checks the static ReactForce path: under
// parallel marking the engine severs every reference to an asserted-dead
// object before claiming it, so the object is reclaimed in the same cycle —
// exactly as the sequential marker's EdgeClear reaction does.
func TestParallelForceDeadEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rep := &gcassert.CollectingReporter{}
		vm := gcassert.New(gcassert.Options{
			HeapBytes:      1 << 20,
			Infrastructure: true,
			Reporter:       rep,
			Policy:         gcassert.Policy{}.With(gcassert.KindDead, gcassert.ReactForce),
			Workers:        workers,
		})
		node := vm.Define("Node",
			gcassert.Field{Name: "a", Ref: true},
			gcassert.Field{Name: "b", Ref: true})
		th := vm.NewThread("main")
		fr := th.Push(4)

		// doomed is referenced from two live parents and a root.
		doomed := th.New(node)
		p1, p2 := th.New(node), th.New(node)
		vm.SetRef(p1, 0, doomed)
		vm.SetRef(p2, 1, doomed)
		fr.Set(0, p1)
		fr.Set(1, p2)
		fr.Set(2, doomed)

		vm.AssertDead(doomed)
		col := vm.Collect()
		if col.Workers != workers {
			t.Fatalf("workers=%d: collection ran with %d workers", workers, col.Workers)
		}
		if vm.GetRef(p1, 0) != gcassert.Nil || vm.GetRef(p2, 1) != gcassert.Nil || fr.Get(2) != gcassert.Nil {
			t.Fatalf("workers=%d: force-dead left a reference standing", workers)
		}
		alive := false
		vm.Space().ForEachObject(func(a gcassert.Ref) bool {
			if a == doomed {
				alive = true
			}
			return true
		})
		if alive {
			t.Fatalf("workers=%d: force-dead object survived the cycle", workers)
		}
		dead := rep.ByKind(gcassert.KindDead)
		if len(dead) != 1 {
			t.Fatalf("workers=%d: %d dead violations, want 1", workers, len(dead))
		}
		if workers > 1 {
			v := &dead[0]
			if v.Root == "" || len(v.Path) == 0 || v.Path[len(v.Path)-1].Addr != doomed {
				t.Fatalf("workers=%d: forced violation lacks a complete path: %+v", workers, v)
			}
		}
	}
}

// TestParallelDeciderFallsBack checks that a programmatic OnViolation decider
// forces the sequential marker even when Workers is set: the decider's
// reaction must apply at edge time, which only the sequential trace can do.
func TestParallelDeciderFallsBack(t *testing.T) {
	vm := gcassert.New(gcassert.Options{
		HeapBytes:      1 << 20,
		Infrastructure: true,
		Workers:        4,
		Telemetry:      true,
		OnViolation:    func(v *gcassert.Violation) gcassert.Reaction { return gcassert.ReactLog },
	})
	node := vm.Define("Node", gcassert.Field{Name: "a", Ref: true})
	th := vm.NewThread("main")
	fr := th.Push(1)
	fr.Set(0, th.New(node))
	col := vm.Collect()
	if col.Workers != 1 {
		t.Fatalf("decider-equipped runtime marked with %d workers, want sequential fallback", col.Workers)
	}
	if col.Fallback != "decider" {
		t.Fatalf("collection Fallback = %q, want decider", col.Fallback)
	}
	if vm.MarkWorkers() != 4 {
		t.Fatalf("fallback changed the configured worker count to %d", vm.MarkWorkers())
	}

	// The fallback reason must reach the observability surface: the event
	// stream and the Prometheus counter.
	tel := vm.Telemetry()
	events := tel.Events()
	if len(events) == 0 || events[len(events)-1].Fallback != "decider" {
		t.Fatalf("telemetry events do not carry the fallback reason: %+v", events)
	}
	var meta strings.Builder
	if err := tel.WriteMetrics(&meta); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(meta.String(), `gcassert_gc_mark_fallback_total{reason="decider"} 1`) {
		t.Fatalf("metrics miss the fallback counter:\n%s", meta.String())
	}
}
