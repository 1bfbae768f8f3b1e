package parmark

import (
	"testing"
	"time"

	"gcassert/internal/heap"
)

// waitParked blocks until n workers of e are parked.
func waitParked(e *Engine, n int) {
	for {
		e.mu.Lock()
		parked := e.parked
		e.mu.Unlock()
		if parked == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// abortChecks binds a shard that panics on worker 1 once every other worker
// has parked, so the abort must wake parked workers to end the mark.
type abortChecks struct {
	t    *testing.T
	eng  *Engine
	boom any
}

func (c *abortChecks) ForceDead() bool     { return false }
func (c *abortChecks) WantAllClaims() bool { return false }
func (c *abortChecks) Merge(*Resolver)     { c.t.Error("Merge ran after an aborted mark") }
func (c *abortChecks) Shard(i int) Shard {
	if i == 1 {
		return panicShard{c}
	}
	return nopShard{}
}

type nopShard struct{}

func (nopShard) OnEdge(heap.Addr, int, int32, heap.Addr, uint64, bool) {}
func (nopShard) OnDeadForced(heap.Addr, int, int32, heap.Addr, uint64) {}

type panicShard struct{ c *abortChecks }

func (s panicShard) OnEdge(heap.Addr, int, int32, heap.Addr, uint64, bool) {
	waitParked(s.c.eng, len(s.c.eng.workers)-1)
	panic(s.c.boom)
}

func (s panicShard) OnDeadForced(heap.Addr, int, int32, heap.Addr, uint64) {}

// markOrPanic runs Mark and returns the value it panicked with, failing the
// test if the mark does not end.
func markOrPanic(t *testing.T, e *Engine, roots []Root, checks Checks) (res Result, panicked any) {
	t.Helper()
	type outcome struct {
		res Result
		p   any
	}
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			o.p = recover()
			ch <- o
		}()
		o.res = e.Mark(roots, checks, nil)
	}()
	select {
	case o := <-ch:
		return o.res, o.p
	case <-time.After(30 * time.Second):
		t.Fatal("mark did not end")
		return Result{}, nil
	}
}

// TestWorkerPanicAbortsMark checks the abort path: a panic in one worker's
// shard is re-raised on the caller with its value after the parked workers
// woke and exited, and the same engine then completes a correct mark.
func TestWorkerPanicAbortsMark(t *testing.T) {
	reg := heap.NewRegistry()
	node := reg.Define("Node", heap.Field{Name: "next", Ref: true})
	space := heap.NewSpace(reg, 1<<20)
	const workers, chain = 4, 100
	slots := make([]heap.Addr, workers)
	for i := range slots {
		var prev heap.Addr
		for j := 0; j < chain; j++ {
			a, ok := space.Allocate(node, 0)
			if !ok {
				t.Fatal("allocation failed")
			}
			space.SetRef(a, 0, prev)
			prev = a
		}
		slots[i] = prev
	}
	// Worker i scans root i; the flag makes worker 1's root edge reach its
	// shard whichever worker claims the object.
	space.SetFlag(slots[1], heap.FlagUnshared)
	roots := make([]Root, len(slots))
	for i := range slots {
		roots[i] = Root{Slot: &slots[i], Desc: "test.root"}
	}

	eng := NewEngine(space, workers)
	boom := &struct{ msg string }{"shard failure"}
	if _, p := markOrPanic(t, eng, roots, &abortChecks{t: t, eng: eng, boom: boom}); p != boom {
		t.Fatalf("Mark panicked with %v, want the shard's value", p)
	}

	space.ForEachObject(func(a heap.Addr) bool {
		space.ClearMark(a)
		return true
	})
	res, p := markOrPanic(t, eng, roots, nil)
	if p != nil {
		t.Fatalf("mark after abort panicked: %v", p)
	}
	if res.ObjectsMarked != workers*chain {
		t.Fatalf("mark after abort marked %d objects, want %d", res.ObjectsMarked, workers*chain)
	}
}

// waitChecks binds a shard that, on worker 0's first claim, waits until
// worker 1 has parked, so worker 0 must share its stack through the pool.
type waitChecks struct {
	eng    *Engine
	waited bool
}

func (c *waitChecks) ForceDead() bool     { return false }
func (c *waitChecks) WantAllClaims() bool { return true }
func (c *waitChecks) Merge(*Resolver)     {}
func (c *waitChecks) Shard(i int) Shard {
	if i == 0 {
		return waitShard{c}
	}
	return nopShard{}
}

type waitShard struct{ c *waitChecks }

func (s waitShard) OnEdge(heap.Addr, int, int32, heap.Addr, uint64, bool) {
	if !s.c.waited {
		s.c.waited = true
		waitParked(s.c.eng, 1)
	}
}

func (waitShard) OnDeadForced(heap.Addr, int, int32, heap.Addr, uint64) {}

// TestParkedWorkerGetsPacket checks the pool: worker 1 has no root and
// parks at once, so worker 0, holding the whole wide graph, must move a
// packet into the pool, and the mark still counts every object once.
func TestParkedWorkerGetsPacket(t *testing.T) {
	reg := heap.NewRegistry()
	node := reg.Define("Node", heap.Field{Name: "next", Ref: true})
	space := heap.NewSpace(reg, 4<<20)
	const width = 4 * packetSize
	arr, ok := space.Allocate(heap.TRefArray, width)
	if !ok {
		t.Fatal("allocation failed")
	}
	for i := 0; i < width; i++ {
		leaf, _ := space.Allocate(node, 0)
		a, ok := space.Allocate(node, 0)
		if !ok {
			t.Fatal("allocation failed")
		}
		space.SetRef(a, 0, leaf)
		space.SetRefAt(arr, i, a)
	}
	slots := []heap.Addr{arr}
	eng := NewEngine(space, 2)
	res, p := markOrPanic(t, eng, []Root{{Slot: &slots[0], Desc: "test.root"}}, &waitChecks{eng: eng})
	if p != nil {
		t.Fatalf("mark panicked: %v", p)
	}
	if want := 1 + 2*width; res.ObjectsMarked != want {
		t.Fatalf("marked %d objects, want %d", res.ObjectsMarked, want)
	}
	// Which worker takes the packet is up to the scheduler: with one CPU,
	// worker 0 may drain its stack and take the packet back before worker
	// 1 runs.
	if res.PerWorker[0].Steals+res.PerWorker[1].Steals == 0 {
		t.Fatalf("no packet went through the pool: %+v", res.PerWorker)
	}
}
