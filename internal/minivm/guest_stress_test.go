package minivm

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// bstProgram is an unbalanced binary search tree in MJ: insert a pseudo-
// random key sequence (xorshift in-guest), then print an in-order
// traversal. It exercises recursion, field mutation, and GC survival of a
// deep guest data structure under allocation pressure.
const bstProgram = `
class Node {
  Node left;
  Node right;
  int key;
}

class BST {
  Node root;
  int size;

  void insert(int k) {
    if (root == null) {
      root = mk(k);
      size = size + 1;
      return;
    }
    Node cur = root;
    while (1) {
      if (k == cur.key) { return; }
      if (k < cur.key) {
        if (cur.left == null) { cur.left = mk(k); size = size + 1; return; }
        cur = cur.left;
      } else {
        if (cur.right == null) { cur.right = mk(k); size = size + 1; return; }
        cur = cur.right;
      }
    }
  }

  Node mk(int k) {
    Node n = new Node();
    n.key = k;
    return n;
  }

  int contains(int k) {
    Node cur = root;
    while (cur != null) {
      if (k == cur.key) { return 1; }
      if (k < cur.key) { cur = cur.left; } else { cur = cur.right; }
    }
    return 0;
  }

  void inorder(Node n) {
    if (n == null) { return; }
    inorder(n.left);
    print(n.key);
    inorder(n.right);
  }
}

class Main {
  int state;
  int next() {
    // xorshift-ish PRNG on 31 bits, kept positive.
    state = state * 1103515245 + 12345;
    int v = state % 65536;
    if (v < 0) { v = -v; }
    return v;
  }
  void main() {
    BST t = new BST();
    state = 42;
    int i = 0;
    while (i < 400) {
      t.insert(next() % 1000);
      // Allocation pressure: transient arrays force collections.
      int[] junk = new int[500];
      junk[0] = i;
      i = i + 1;
    }
    print(t.size);
    t.inorder(t.root);
  }
}
`

// TestGuestBSTMatchesOracle replays the guest PRNG in Go and checks the
// guest's in-order output is exactly the sorted set of inserted keys — a
// cross-language differential test of the compiler, interpreter and GC.
func TestGuestBSTMatchesOracle(t *testing.T) {
	var out strings.Builder
	res, err := CompileAndRun(bstProgram, RunOptions{Out: &out, HeapBytes: 2 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.VM.Collector().GCCount() == 0 {
		t.Fatal("no collections; stress ineffective")
	}

	// Oracle: the same PRNG in Go (int is int64 in MJ).
	set := map[int64]bool{}
	state := int64(42)
	for i := 0; i < 400; i++ {
		state = state*1103515245 + 12345
		v := state % 65536
		if v < 0 {
			v = -v
		}
		set[v%1000] = true
	}
	var want []int64
	for k := range set {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

	lines := strings.Fields(out.String())
	if len(lines) != len(want)+1 {
		t.Fatalf("output lines = %d, want %d", len(lines), len(want)+1)
	}
	if lines[0] != fmt.Sprint(len(want)) {
		t.Errorf("size = %s, want %d", lines[0], len(want))
	}
	for i, w := range want {
		if lines[i+1] != fmt.Sprint(w) {
			t.Fatalf("inorder[%d] = %s, want %d", i, lines[i+1], w)
		}
	}
}

// TestGuestQueueRegionDiscipline: a guest work queue drains completely per
// round; regions verify that no per-round allocation survives.
func TestGuestQueueRegionDiscipline(t *testing.T) {
	_, rep := run(t, `
class Item { Item next; int v; }
class Queue {
  Item head;
  Item tail;
  void push(Item it) {
    if (tail == null) { head = it; tail = it; return; }
    tail.next = it;
    tail = it;
  }
  Item pop() {
    Item it = head;
    head = head.next;
    if (head == null) { tail = null; }
    it.next = null;
    return it;
  }
}
class Main {
  void main() {
    Queue q = new Queue();
    int round = 0;
    while (round < 5) {
      startRegion();
      int i = 0;
      while (i < 50) {
        Item it = new Item();
        it.v = i;
        q.push(it);
        it = null;   // like the paper's oldCompany: a stale local would
                     // keep the last item alive past the region
        i = i + 1;
      }
      int sum = 0;
      while (q.head != null) {
        Item it = q.pop();
        sum = sum + it.v;
        it = null;
      }
      print(sum);
      // The queue is empty: everything allocated in this region must die.
      // (q itself was allocated before any region.)
      int n = assertAllDead();
      gc();
      round = round + 1;
    }
  }
}`)
	if rep.Len() != 0 {
		t.Fatalf("region violations in a draining queue: %v", rep.Violations()[0].String())
	}
}

// TestGuestDeepRecursionFrames exercises many concurrent interpreter frames
// (each with shadow roots) plus GC during deep recursion.
func TestGuestDeepRecursionFrames(t *testing.T) {
	lines, rep := run(t, `
class Node { Node next; }
class Main {
  int build(int depth, Node chain) {
    if (depth == 0) { return 0; }
    Node n = new Node();
    n.next = chain;
    int[] junk = new int[200];
    junk[0] = depth;
    return 1 + build(depth - 1, n);
  }
  void main() {
    int total = 0;
    int i = 0;
    while (i < 30) {
      total = total + build(200, null);
      i = i + 1;
    }
    print(total);
  }
}`)
	if len(lines) != 1 || lines[0] != "6000" {
		t.Errorf("output = %v", lines)
	}
	if rep.Len() != 0 {
		t.Errorf("violations: %v", rep.Violations())
	}
}

// TestGuestDeterministic runs the BST program twice: identical output and
// identical allocation counts (the whole stack is deterministic).
func TestGuestDeterministic(t *testing.T) {
	runOnce := func() (string, uint64) {
		var out strings.Builder
		res, err := CompileAndRun(bstProgram, RunOptions{Out: &out, HeapBytes: 2 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return out.String(), res.VM.HeapStats().ObjectsAllocated
	}
	o1, a1 := runOnce()
	o2, a2 := runOnce()
	if o1 != o2 || a1 != a2 {
		t.Errorf("nondeterministic guest execution: %d vs %d objects", a1, a2)
	}
}

// TestGuestRandomPrograms fuzzes arithmetic expression programs against a
// Go evaluator.
func TestGuestRandomArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 25; trial++ {
		// Generate a random arithmetic expression over small constants.
		var genExpr func(depth int) (string, int64)
		genExpr = func(depth int) (string, int64) {
			if depth == 0 || rng.Intn(3) == 0 {
				v := int64(rng.Intn(20) + 1)
				return fmt.Sprint(v), v
			}
			l, lv := genExpr(depth - 1)
			r, rv := genExpr(depth - 1)
			switch rng.Intn(4) {
			case 0:
				return "(" + l + " + " + r + ")", lv + rv
			case 1:
				return "(" + l + " - " + r + ")", lv - rv
			case 2:
				return "(" + l + " * " + r + ")", lv * rv
			default:
				if rv == 0 {
					return "(" + l + " + " + r + ")", lv + rv
				}
				return "(" + l + " / " + r + ")", lv / rv
			}
		}
		expr, want := genExpr(4)
		src := fmt.Sprintf(`class Main { void main() { print(%s); } }`, expr)
		var out strings.Builder
		_, err := CompileAndRun(src, RunOptions{Out: &out, HeapBytes: 2 << 20})
		if err != nil {
			if strings.Contains(err.Error(), "division by zero") {
				continue
			}
			t.Fatalf("trial %d: %v (src %s)", trial, err, src)
		}
		if got := strings.TrimSpace(out.String()); got != fmt.Sprint(want) {
			t.Fatalf("trial %d: %s = %s, want %d", trial, expr, got, want)
		}
	}
}

// recursionBomb recurses without a base case: without a call-depth bound
// it overflows the host's Go stack, which no recover can catch.
const recursionBomb = `class Main { int f(int n) { return this.f(n + 1); } void main() { int x = this.f(0); } }`

// TestGuestRecursionBombFails checks that unbounded guest recursion fails as
// a VMError at MaxCallDepth, leaves the frame stack balanced, and leaves the
// image usable.
func TestGuestRecursionBombFails(t *testing.T) {
	res, err := CompileAndRun(recursionBomb, RunOptions{HeapBytes: 4 << 20})
	var ve *VMError
	if !errors.As(err, &ve) || !strings.Contains(ve.Msg, "call depth") {
		t.Fatalf("err = %v, want a call-depth VMError", err)
	}
	if d := res.Image.Thread().Depth(); d != 0 {
		t.Fatalf("frame stack unbalanced after the failure: depth %d", d)
	}
	if err := res.Image.Run(); !errors.As(err, &ve) {
		t.Fatalf("second run: err = %v, want the same VMError", err)
	}
}
