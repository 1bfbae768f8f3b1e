package parmark_test

import (
	"math/rand"
	"testing"

	"gcassert/internal/collector/parmark"
	"gcassert/internal/heap"
)

// buildGraph allocates n objects with random edges and returns the space
// plus root slots covering a random subset of the objects.
func buildGraph(t *testing.T, seed int64, n, nroots int) (*heap.Space, []heap.Addr) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	reg := heap.NewRegistry()
	node := reg.Define("Node",
		heap.Field{Name: "a", Ref: true},
		heap.Field{Name: "b", Ref: true},
		heap.Field{Name: "c", Ref: true})
	space := heap.NewSpace(reg, 16<<20)

	objs := make([]heap.Addr, 0, n)
	for i := 0; i < n; i++ {
		a, ok := space.Allocate(node, 0)
		if !ok {
			t.Fatalf("allocation %d failed", i)
		}
		objs = append(objs, a)
		// Random edges to already-allocated objects, plus a chain edge so
		// deep paths exist (stress for stealing and termination).
		if i > 0 {
			space.SetRef(a, 0, objs[rng.Intn(i)])
			space.SetRef(a, 1, objs[i-1])
			if rng.Intn(2) == 0 {
				space.SetRef(a, 2, objs[rng.Intn(i)])
			}
		}
	}
	roots := make([]heap.Addr, nroots)
	for i := range roots {
		roots[i] = objs[rng.Intn(len(objs))]
	}
	// Make the chain head reachable so the longest path is live.
	roots[0] = objs[len(objs)-1]
	return space, roots
}

// seqReachable computes the live set with a plain sequential traversal
// (no mark bits).
func seqReachable(space *heap.Space, roots []heap.Addr) map[heap.Addr]bool {
	seen := make(map[heap.Addr]bool)
	var stack []heap.Addr
	for _, r := range roots {
		if r != heap.Nil && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		space.ForEachRef(a, func(_ int, c heap.Addr) {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		})
	}
	return seen
}

func parRoots(slots []heap.Addr) []parmark.Root {
	out := make([]parmark.Root, len(slots))
	for i := range slots {
		out[i] = parmark.Root{Slot: &slots[i], Desc: "test.root"}
	}
	return out
}

// TestMarkMatchesSequentialReachability checks, at several worker counts,
// that the parallel trace marks exactly the reachable set and counts every
// object exactly once across workers.
func TestMarkMatchesSequentialReachability(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		for seed := int64(0); seed < 3; seed++ {
			space, roots := buildGraph(t, seed, 20000, 16)
			want := seqReachable(space, roots)

			eng := parmark.NewEngine(space, workers)
			res := eng.Mark(parRoots(roots), nil, nil)
			if res.ObjectsMarked != len(want) {
				t.Fatalf("workers=%d seed=%d: marked %d, want %d", workers, seed, res.ObjectsMarked, len(want))
			}
			var sum int
			for _, ws := range res.PerWorker {
				sum += ws.Marked
			}
			if sum != res.ObjectsMarked {
				t.Fatalf("workers=%d seed=%d: per-worker sum %d != total %d", workers, seed, sum, res.ObjectsMarked)
			}
			mismatch := 0
			space.ForEachObject(func(a heap.Addr) bool {
				if space.Marked(a) != want[a] {
					mismatch++
				}
				return true
			})
			if mismatch != 0 {
				t.Fatalf("workers=%d seed=%d: %d objects with wrong mark bit", workers, seed, mismatch)
			}
			space.Sweep(false)
		}
	}
}

// pathChecks records the claim edge of every object (WantAllClaims) and, at
// merge time, verifies resolver paths for every claimed object.
type pathChecks struct {
	t      *testing.T
	space  *heap.Space
	shards []*pathShard
	merged func(*parmark.Resolver, []claimRec)
}

type claimRec struct {
	parent heap.Addr
	root   int32
	child  heap.Addr
}

type pathShard struct{ claims []claimRec }

func (s *pathShard) OnEdge(parent heap.Addr, slot int, root int32, child heap.Addr, old uint64, claimed bool) {
	if claimed {
		s.claims = append(s.claims, claimRec{parent: parent, root: root, child: child})
	}
}

func (s *pathShard) OnDeadForced(parent heap.Addr, slot int, root int32, child heap.Addr, old uint64) {
}

func (pc *pathChecks) ForceDead() bool     { return false }
func (pc *pathChecks) WantAllClaims() bool { return true }
func (pc *pathChecks) Shard(i int) parmark.Shard {
	for len(pc.shards) <= i {
		pc.shards = append(pc.shards, &pathShard{})
	}
	return pc.shards[i]
}

func (pc *pathChecks) Merge(r *parmark.Resolver) {
	var all []claimRec
	for _, sh := range pc.shards {
		all = append(all, sh.claims...)
	}
	pc.merged(r, all)
}

// TestBreadcrumbPathsAreComplete marks in parallel and verifies, for every
// claimed object, that the resolver reconstructs a root-anchored path whose
// consecutive hops really are heap edges.
func TestBreadcrumbPathsAreComplete(t *testing.T) {
	space, roots := buildGraph(t, 7, 5000, 8)
	eng := parmark.NewEngine(space, 4)

	verified := 0
	pc := &pathChecks{t: t, space: space}
	pc.merged = func(r *parmark.Resolver, claims []claimRec) {
		for _, cl := range claims {
			root, ancestors := r.EdgePath(cl.parent, cl.root)
			if root == "" {
				t.Fatalf("object %#x: empty root description", uint32(cl.child))
			}
			if cl.parent == heap.Nil {
				if len(ancestors) != 0 {
					t.Fatalf("root edge with %d ancestors", len(ancestors))
				}
				verified++
				continue
			}
			if len(ancestors) == 0 || ancestors[len(ancestors)-1] != cl.parent {
				t.Fatalf("object %#x: path does not end at parent", uint32(cl.child))
			}
			chain := append(append([]heap.Addr(nil), ancestors...), cl.child)
			for i := 0; i+1 < len(chain); i++ {
				found := false
				space.ForEachRef(chain[i], func(_ int, c heap.Addr) {
					if c == chain[i+1] {
						found = true
					}
				})
				if !found {
					t.Fatalf("object %#x: hop %d (%#x -> %#x) is not a heap edge",
						uint32(cl.child), i, uint32(chain[i]), uint32(chain[i+1]))
				}
			}
			verified++
		}
	}
	res := eng.Mark(parRoots(roots), pc, nil)
	if verified != res.ObjectsMarked {
		t.Fatalf("verified %d paths, marked %d objects", verified, res.ObjectsMarked)
	}
}

// TestEngineReuseAcrossCycles runs several mark/sweep cycles on one engine,
// as the collector does, checking counts stay consistent.
func TestEngineReuseAcrossCycles(t *testing.T) {
	space, roots := buildGraph(t, 3, 8000, 8)
	eng := parmark.NewEngine(space, 4)
	want := len(seqReachable(space, roots))
	for cycle := 0; cycle < 3; cycle++ {
		res := eng.Mark(parRoots(roots), nil, nil)
		if res.ObjectsMarked != want {
			t.Fatalf("cycle %d: marked %d, want %d", cycle, res.ObjectsMarked, want)
		}
		space.Sweep(false)
	}
}

// TestOnMarkReplaySeesEveryObject checks the serialized census replay.
func TestOnMarkReplaySeesEveryObject(t *testing.T) {
	space, roots := buildGraph(t, 11, 4000, 8)
	eng := parmark.NewEngine(space, 4)
	seen := make(map[heap.Addr]int)
	res := eng.Mark(parRoots(roots), nil, func(a heap.Addr) { seen[a]++ })
	if len(seen) != res.ObjectsMarked {
		t.Fatalf("OnMark saw %d distinct objects, marked %d", len(seen), res.ObjectsMarked)
	}
	for a, n := range seen {
		if n != 1 {
			t.Fatalf("OnMark saw %#x %d times", uint32(a), n)
		}
	}
}
