package parmark

import "gcassert/internal/heap"

// Resolver reconstructs root-to-object paths after a parallel mark. It is
// handed to Checks.Merge and is valid only until Mark returns.
//
// Workers record no paths while tracing. The first EdgePath call runs one
// breadth-first search over the marked objects from the roots, and every
// call reads that search's tree. The search reaches every object a worker
// scanned: each was claimed through an edge from a root or from another
// scanned object, and force-dead severing only removes edges to objects
// that stay unmarked.
type Resolver struct {
	eng  *Engine
	tree map[heap.Addr]hop
}

// hop is an object's place in the search tree: the object it was first
// reached from (heap.Nil for an object held by a root) and the index of
// the root its path starts at.
type hop struct {
	from heap.Addr
	root int32
}

// RootDesc returns the description of root index idx (as passed to OnEdge /
// OnDeadForced), or "" for an out-of-range index.
func (r *Resolver) RootDesc(idx int32) string {
	if idx < 0 || int(idx) >= len(r.eng.roots) {
		return ""
	}
	return r.eng.roots[idx].Desc
}

// EdgePath reconstructs the edge context (parent, rootIdx) of a violation
// into the sequential marker's report shape: the description of the root
// the path starts at, and the ancestor chain root-object-first ending with
// parent itself. A root edge (parent == heap.Nil) yields no ancestors and
// the description of root rootIdx.
func (r *Resolver) EdgePath(parent heap.Addr, rootIdx int32) (root string, ancestors []heap.Addr) {
	if parent == heap.Nil {
		return r.RootDesc(rootIdx), nil
	}
	if r.tree == nil {
		r.search()
	}
	h, ok := r.tree[parent]
	if !ok {
		// Unreachable for an edge a worker scanned (see Resolver).
		return "", []heap.Addr{parent}
	}
	for cur := parent; cur != heap.Nil; cur = r.tree[cur].from {
		ancestors = append(ancestors, cur)
	}
	for i, j := 0, len(ancestors)-1; i < j; i, j = i+1, j-1 {
		ancestors[i], ancestors[j] = ancestors[j], ancestors[i]
	}
	return r.RootDesc(h.root), ancestors
}

// search builds the breadth-first tree over the marked objects, visiting
// roots in index order.
func (r *Resolver) search() {
	s := r.eng.space
	r.tree = make(map[heap.Addr]hop)
	var queue []heap.Addr
	reach := func(a, from heap.Addr, root int32) {
		if _, seen := r.tree[a]; !seen && s.Marked(a) {
			r.tree[a] = hop{from: from, root: root}
			queue = append(queue, a)
		}
	}
	for i, rt := range r.eng.roots {
		if a := *rt.Slot; a != heap.Nil {
			reach(a, heap.Nil, int32(i))
		}
	}
	for i := 0; i < len(queue); i++ {
		a := queue[i]
		root := r.tree[a].root
		s.ForEachRef(a, func(_ int, c heap.Addr) { reach(c, a, root) })
	}
}
