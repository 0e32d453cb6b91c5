package steiner

import (
	"math"

	"gmp/internal/geom"
)

// Builder constructs multicast trees into reusable storage. GMP rebuilds an
// rrSTR tree at every transmitting node (paper §3–4), so the construction is
// the hot inner loop of every forwarding decision; a Builder keeps the tree,
// the pair queue, the active-vertex set and the MST working arrays across
// calls, making steady-state builds allocation-free.
//
// The zero value is ready to use. Each build method resets and returns the
// builder's own tree: the result is valid only until the next call on the
// same Builder, and callers that need to retain a tree must copy it. Builders
// are not safe for concurrent use: a forwarding decision takes one inside
// its pooled decision arena (internal/routing), and tools that need several
// live trees at once hold one Builder each.
type Builder struct {
	tree      Tree
	q         pairQueue
	active    []bool
	deadPairs map[[2]int]bool

	// Prim working arrays for the MST builders.
	inTree   []bool
	bestCost []float64
	bestFrom []int
}

// growBools returns s resized to n elements, all false, reusing capacity.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// growFloats returns s resized to n elements, reusing capacity. Contents are
// unspecified; callers must initialize.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts returns s resized to n elements, reusing capacity. Contents are
// unspecified; callers must initialize.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Build runs the rrSTR heuristic (paper Figure 3): it constructs a virtual
// Euclidean Steiner tree rooted at source and spanning all dests. The tree
// may contain Virtual vertices at exact three-point Steiner locations.
//
// The returned tree always satisfies Validate: it is acyclic and every
// terminal is connected to the source. Build never fails; degenerate inputs
// (no destinations, collocated points) produce the obvious trees. The tree
// is owned by the builder and valid until the next call on it.
func (b *Builder) Build(source geom.Point, dests []Dest, opts Options) *Tree {
	tree := &b.tree
	tree.Reset(source)
	n := len(dests)
	if n == 0 {
		return tree
	}

	b.active = growBools(b.active, n+1)
	for _, d := range dests {
		id := tree.AddTerminal(d.Pos, d.Label)
		b.active[id] = true
	}

	// Step 2 of Figure 3: reduction ratios and Steiner points for all pairs.
	q := b.q[:0]
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			rr, t := ReductionRatioPoint(source, tree.Vertex(i).Pos, tree.Vertex(j).Pos)
			q = append(q, pairItem{u: i, v: j, rr: rr, t: t})
		}
	}
	q.init()

	if b.deadPairs == nil {
		b.deadPairs = make(map[[2]int]bool)
	} else {
		clear(b.deadPairs)
	}

	for len(q) > 0 {
		it := q.pop()
		if !b.active[it.u] || !b.active[it.v] || b.deadPairs[[2]int{it.u, it.v}] {
			continue // lazily discarded stale entry
		}
		u, v, t := it.u, it.v, it.t
		upos, vpos := tree.Vertex(u).Pos, tree.Vertex(v).Pos

		switch {
		case t.Eq(source):
			// Steiner point collocated with the source: direct edges.
			tree.AddEdge(0, u)
			tree.AddEdge(0, v)
			b.active[u] = false
			b.active[v] = false

		case t.Eq(upos):
			// u acts as the Steiner point; u stays active so it can keep
			// pairing with other destinations.
			tree.AddEdge(u, v)
			b.active[v] = false

		case t.Eq(vpos):
			tree.AddEdge(u, v)
			b.active[u] = false

		default:
			if opts.RadioAware && b.applyRadioCases(it, opts) {
				continue
			}
			// Create a new virtual destination w at the Steiner point.
			w := tree.AddVirtual(t)
			b.active = append(b.active, false)
			tree.AddEdge(w, u)
			tree.AddEdge(w, v)
			b.active[u] = false
			b.active[v] = false
			b.active[w] = true
			// Pair w with every other active vertex, in ascending ID order
			// for determinism (IDs are dense, so the scan is already sorted).
			for id := 1; id < tree.NumVertices(); id++ {
				if id == w || !b.active[id] {
					continue
				}
				rr, st := ReductionRatioPoint(source, t, tree.Vertex(id).Pos)
				a, c := w, id
				if a > c {
					a, c = c, a
				}
				q.push(pairItem{u: a, v: c, rr: rr, t: st})
			}
		}
	}
	b.q = q[:0]

	// Queue exhausted: every destination still active is covered by a direct
	// edge from the source (the "(c, c) pair" of the paper's walk-through).
	// Iterate in ID order for determinism.
	for id := 1; id < tree.NumVertices(); id++ {
		if b.active[id] {
			tree.AddEdge(0, id)
			b.active[id] = false
		}
	}
	return tree
}

// applyRadioCases implements the three §3.3 radio-range-aware special cases.
// It reports whether the pair was fully handled (true) or whether the caller
// should proceed to create a virtual destination (false).
func (b *Builder) applyRadioCases(it pairItem, opts Options) bool {
	tree := &b.tree
	source := tree.Vertex(0).Pos
	u, v, t := it.u, it.v, it.t
	upos, vpos := tree.Vertex(u).Pos, tree.Vertex(v).Pos
	rr := opts.RadioRange
	du, dv := source.Dist(upos), source.Dist(vpos)
	key := [2]int{u, v}

	// Cost comparison of §3.3: routing through the virtual destination costs
	// one hop (rr) plus the residual legs; direct delivery costs du + dv.
	viaVirtual := rr + t.Dist(upos) + t.Dist(vpos)
	notBeneficial := viaVirtual > du+dv

	switch {
	case du < rr && dv < rr:
		// Case 1: both are one hop away; a virtual destination could only
		// add a hop to each. Deactivate the pair (not the nodes).
		b.deadPairs[key] = true
		return true

	case du < rr:
		// Case 3 with u in range.
		if notBeneficial {
			if opts.OneInRangeProse {
				tree.AddEdge(0, u)
				tree.AddEdge(0, v)
				b.active[u] = false
				b.active[v] = false
			} else {
				b.deadPairs[key] = true
			}
			return true
		}
		// u itself serves as the Steiner point.
		tree.AddEdge(u, v)
		b.active[v] = false
		return true

	case dv < rr:
		// Case 3 with v in range, symmetric.
		if notBeneficial {
			if opts.OneInRangeProse {
				tree.AddEdge(0, u)
				tree.AddEdge(0, v)
				b.active[u] = false
				b.active[v] = false
			} else {
				b.deadPairs[key] = true
			}
			return true
		}
		tree.AddEdge(u, v)
		b.active[u] = false
		return true

	case source.Dist(t) < rr && notBeneficial:
		// Case 2: the Steiner point is within one hop but not worth the
		// detour; the source serves as the Steiner point.
		tree.AddEdge(0, u)
		tree.AddEdge(0, v)
		b.active[u] = false
		b.active[v] = false
		return true
	}
	return false
}

// EuclideanMST builds the minimum spanning tree of {source} ∪ dests under
// Euclidean distance, using Prim's algorithm seeded at the source. This is
// the tree-construction step of the LGS baseline (Chen & Nahrstedt [5]): the
// tree uses only the actual destination locations — no virtual points.
//
// Edge insertion order is Prim's growth order, which gives LastChild a
// deterministic meaning for trees produced here as well. The tree is owned
// by the builder and valid until the next call on it.
func (b *Builder) EuclideanMST(source geom.Point, dests []Dest) *Tree {
	tree := &b.tree
	tree.Reset(source)
	n := len(dests)
	if n == 0 {
		return tree
	}
	for _, d := range dests {
		tree.AddTerminal(d.Pos, d.Label)
	}

	const unvisited = -1
	b.inTree = growBools(b.inTree, n+1)
	b.bestCost = growFloats(b.bestCost, n+1)
	b.bestFrom = growInts(b.bestFrom, n+1)
	inTree, bestCost, bestFrom := b.inTree, b.bestCost, b.bestFrom
	for i := range bestCost {
		bestCost[i] = math.Inf(1)
		bestFrom[i] = unvisited
	}
	inTree[0] = true
	for i := 1; i <= n; i++ {
		bestCost[i] = source.Dist(tree.Vertex(i).Pos)
		bestFrom[i] = 0
	}

	for added := 0; added < n; added++ {
		pick := unvisited
		for i := 1; i <= n; i++ {
			if !inTree[i] && (pick == unvisited || bestCost[i] < bestCost[pick]) {
				pick = i
			}
		}
		inTree[pick] = true
		tree.AddEdge(bestFrom[pick], pick)
		pickPos := tree.Vertex(pick).Pos
		for i := 1; i <= n; i++ {
			if inTree[i] {
				continue
			}
			if d := pickPos.Dist(tree.Vertex(i).Pos); d < bestCost[i] {
				bestCost[i] = d
				bestFrom[i] = pick
			}
		}
	}
	return tree
}

// SteinerizedMST builds the Euclidean MST over {source} ∪ dests and then
// improves it by greedy corner Steinerization: wherever two tree edges meet
// at a vertex with an angle below 120°, the corner is replaced by the exact
// three-point Steiner (Fermat) junction, which strictly shortens the tree.
// The scan repeats until no corner yields a gain.
//
// This is the classical MST-improvement family the paper cites as prior
// Steiner heuristics ([23, 26, 33]); the library ships it as the A-6
// ablation's tree builder, sandwiching rrSTR between the plain MST and a
// polished local optimum. The tree is owned by the builder and valid until
// the next call on it.
func (b *Builder) SteinerizedMST(source geom.Point, dests []Dest) *Tree {
	tree := b.EuclideanMST(source, dests)
	// Each insertion adds one virtual vertex and strictly reduces total
	// length; the classical bound on Steiner points (n-2 for n terminals)
	// bounds the loop, with slack for collinear-noise cases.
	maxInsertions := 2 * (len(dests) + 1)
	for i := 0; i < maxInsertions; i++ {
		if !steinerizeOnce(tree) {
			break
		}
	}
	return tree
}
