package main

import "fmt"

// guestFib is the depth of the call-heavy computation in every request.
const guestFib = 12

// guestNodes returns the per-request graph size for a seed: 96 to 104
// nodes, so that seeds vary the input without changing the cost class.
func guestNodes(seed uint64) int { return 96 + int(mixSeed(seed^0x6a09e667)%9) }

// guestSource returns the MJ program a service tenant runs. Each request
// builds a linked graph of nodes, runs a fixed call-heavy computation,
// asserts the dropped graph dead and collects. With leak set the request
// also asserts dead a node it still holds when it collects, so every
// request reports exactly one violation.
func guestSource(nodes int, leak bool) string {
	leakDecl, leakAssert := "", ""
	if leak {
		leakDecl = "Node held = new Node();"
		leakAssert = "assertDead(held);"
	}
	return fmt.Sprintf(`class Node { Node next; Node skip; int v; }

class Main {
  Node build(int size) {
    Node g = null;
    int n = 0;
    while (n < size) {
      Node x = new Node();
      x.v = n;
      x.next = g;
      if (g != null) { x.skip = g.next; }
      g = x;
      n = n + 1;
    }
    return g;
  }

  int fib(int n) {
    if (n < 2) { return n; }
    return this.fib(n - 1) + this.fib(n - 2);
  }

  void main() {
    Node g = this.build(%d);
    int f = this.fib(%d);
    %s
    assertDead(g);
    g = null;
    %s
    gc();
    print(f);
  }
}
`, nodes, guestFib, leakDecl, leakAssert)
}
