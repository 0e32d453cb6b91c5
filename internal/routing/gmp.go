package routing

import (
	"sort"

	"gmp/internal/geom"
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/steiner"
	"gmp/internal/view"
)

// GMPOptions tunes the GMP protocol variants.
type GMPOptions struct {
	// RadioAware enables the §3.3 radio-range-aware rrSTR cases. Disabling
	// yields GMPnr.
	RadioAware bool
	// OneInRangeProse selects the §3.3 prose variant of the one-endpoint-
	// in-range case (see steiner.Options); Figure 3 semantics when false.
	OneInRangeProse bool
	// MSTGrouping replaces the rrSTR tree with a Euclidean MST while
	// keeping the rest of the GMP machinery (grouping by children,
	// progress-constrained next hops, splitting, perimeter mode). Used by
	// the tree-construction ablation that isolates the paper's central
	// rrSTR-vs-MST claim.
	MSTGrouping bool
	// SteinerizedGrouping replaces the rrSTR tree with the corner-
	// Steinerized MST (the classical MST-improvement heuristic family the
	// paper cites as [23, 26, 33]) — the third arm of the A-6 tree
	// ablation. Takes precedence over MSTGrouping.
	SteinerizedGrouping bool
}

// GMP is the paper's protocol (§4): at every transmitting node it builds an
// rrSTR virtual Euclidean Steiner tree over the remaining destinations,
// groups them by the tree's pivots, forwards one copy per group toward the
// pivot under a strict total-distance progress constraint, splits groups
// around voids, and falls back to perimeter routing on the planarized graph
// for destinations no grouping can serve.
//
// Everything GMP needs is local: the tree is built over the header's
// destination locations, next hops come from the view's neighbor table, and
// perimeter mode walks the view's locally planarized adjacency.
type GMP struct {
	opts GMPOptions
	name string
}

var _ Protocol = (*GMP)(nil)

func init() {
	MustRegister(Spec{Name: "GMP", PaperRank: 3,
		New: func(Ctx) Protocol { return NewGMP() }})
	MustRegister(Spec{Name: "GMPnr", PaperRank: 4,
		New: func(Ctx) Protocol { return NewGMPnr() }})
	MustRegister(Spec{Name: "GMPmst",
		New: func(Ctx) Protocol { return NewGMPWithOptions(GMPOptions{MSTGrouping: true}, "GMPmst") }})
	MustRegister(Spec{Name: "GMPsmst",
		New: func(Ctx) Protocol { return NewGMPWithOptions(GMPOptions{SteinerizedGrouping: true}, "GMPsmst") }})
}

// NewGMP returns the full radio-range-aware protocol.
func NewGMP() *GMP {
	return &GMP{opts: GMPOptions{RadioAware: true}, name: "GMP"}
}

// NewGMPnr returns the ablation variant with radio-range awareness disabled
// (the paper's GMPnr series).
func NewGMPnr() *GMP {
	return &GMP{name: "GMPnr"}
}

// NewGMPWithOptions returns a GMP variant with explicit options, used by the
// ablation benchmarks.
func NewGMPWithOptions(opts GMPOptions, name string) *GMP {
	return &GMP{opts: opts, name: name}
}

// Name implements Protocol.
func (g *GMP) Name() string { return g.name }

func (g *GMP) steinerOpts(v view.NodeView) steiner.Options {
	return steiner.Options{
		RadioRange:      v.Range(),
		RadioAware:      g.opts.RadioAware,
		OneInRangeProse: g.opts.OneInRangeProse,
	}
}

// Start implements sim.Handler: the source runs the same procedure as every
// forwarding node.
func (g *GMP) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	a := arenas.Get().(*arena)
	defer arenas.Put(a)
	return g.process(a, v, pkt)
}

// Nack implements sim.NackHandler: when ARQ gives up on a next hop, the
// engine has already banned the link in the session's blacklist, so v masks
// the dead neighbor — re-running the full grouping over it re-selects among
// the remaining neighbors or recovers around the dead link as around a void
// (the paper's own group-split/perimeter machinery). A perimeter copy
// restarts recovery as a fresh greedy round: the face traversal cannot route
// around a dead planar edge, but re-grouping can (and residual voids
// re-enter perimeter mode from here anyway).
func (g *GMP) Nack(v view.NodeView, to int, pkt *sim.Packet) []sim.Forward {
	a := arenas.Get().(*arena)
	defer arenas.Put(a)
	return g.process(a, v, pkt)
}

// Decide implements sim.Handler.
func (g *GMP) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	a := arenas.Get().(*arena)
	defer arenas.Put(a)
	return g.decide(a, v, pkt)
}

// decide is Decide on the working memory a. Each public entry point takes
// one arena from the pool and returns it after the forward list is built,
// so the void sets that alias a are consumed first.
func (g *GMP) decide(a *arena, v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if pkt.Perimeter {
		return g.recoverPerimeter(a, v, pkt)
	}
	return g.process(a, v, pkt)
}

// process is Figure 7: group, forward, and push residual voids into
// perimeter mode.
func (g *GMP) process(a *arena, v view.NodeView, pkt *sim.Packet) []sim.Forward {
	fwds, voids := g.forwardGroups(a, v, pkt)
	if len(voids) == 0 {
		return fwds
	}
	return append(fwds, g.enterPerimeter(a, v, pkt, voids)...)
}

// forwardGroups builds the rrSTR tree, walks its pivots, emits one packet
// copy per group that has a valid next hop, and splits groups per §4.1 when
// none exists. It returns the destinations that remain void after maximal
// splitting (each is a single non-virtual destination by then); the slice
// is backed by a.
func (g *GMP) forwardGroups(a *arena, v view.NodeView, pkt *sim.Packet) (fwds []sim.Forward, voids []int) {
	// Everything transient below lives in the decision's arena: the tree,
	// the pivot worklist, the per-group label buffer, and the batches. Only
	// the CloneFor'd packets and the forward list itself are freshly
	// allocated (the engine keeps them).
	a.destBuf = appendHeaderDests(a.destBuf[:0], pkt)
	var tree *steiner.Tree
	switch {
	case g.opts.SteinerizedGrouping:
		tree = a.builder.SteinerizedMST(v.Pos(), a.destBuf)
	case g.opts.MSTGrouping:
		tree = a.builder.EuclideanMST(v.Pos(), a.destBuf)
	default:
		tree = a.builder.Build(v.Pos(), a.destBuf, g.steinerOpts(v))
	}
	// FIFO worklist over a reused buffer; wi is the virtual "pop front".
	wl := tree.AppendChildren(0, -1, a.worklist[:0])

	// The split loop evaluates heavily overlapping groups; the memo
	// computes each (point, destination) distance at most once per decision.
	a.memo.begin(v.Degree()+1, pkt.Dests, pkt.Locs)

	// Groups whose chosen next hop coincides are batched into a single
	// transmission: the receiver re-partitions the union anyway, so two
	// copies over the same link would only double the transmission count.
	// batchNext doubles as the first-seen emission order (what the map+order
	// pair used to encode); the handful of batches makes the linear scan
	// cheaper than a map.
	batchNext := a.batchNext[:0]
	batches := a.batchLabels[:0]
	voidBuf := a.voidBuf[:0]

	for wi := 0; wi < len(wl); wi++ {
		p := wl[wi]
		for {
			group := a.groupLabels(tree, p)
			next := a.nextHop(v, tree.Vertex(p).Pos, group)
			if next != -1 {
				bi := -1
				for i, n := range batchNext {
					if n == next {
						bi = i
						break
					}
				}
				if bi == -1 {
					batchNext = append(batchNext, next)
					batches = growBatch(batches)
					bi = len(batchNext) - 1
				}
				batches[bi] = append(batches[bi], group...)
				break
			}
			// §4.1 splitting: promote the last child of p to a pivot.
			last := tree.LastChild(p, 0)
			if last == -1 {
				// A lone terminal with no qualifying neighbor: a true void
				// destination.
				voidBuf = append(voidBuf, tree.Vertex(p).Label)
				break
			}
			tree.RemoveEdge(p, last)
			tree.AddEdge(0, last)
			wl = append(wl, last)
			if kids := tree.AppendChildren(p, 0, a.groupBuf[:0]); len(kids) == 1 && tree.Vertex(p).Kind == steiner.Virtual {
				// A virtual pivot with one child dissolves into that child.
				only := kids[0]
				tree.RemoveEdge(p, only)
				tree.AddEdge(0, only)
				wl = append(wl, only)
				break
			}
			// Otherwise retry the same (now smaller) pivot group.
		}
	}
	for i, next := range batchNext {
		copyPkt := pkt.CloneFor(sortedCopy(batches[i]))
		copyPkt.Perimeter = false
		fwds = append(fwds, sim.Forward{To: next, Pkt: copyPkt})
	}
	a.worklist = wl[:0]
	a.batchNext = batchNext[:0]
	if len(batches) > len(a.batchLabels) {
		a.batchLabels = batches
	}
	sort.Ints(voidBuf)
	a.voidBuf = voidBuf
	return fwds, voidBuf
}

// growBatch extends a batch-of-labels list by one empty batch, reusing inner
// capacity retained from previous decisions.
func growBatch(b [][]int) [][]int {
	if len(b) < cap(b) {
		b = b[:len(b)+1]
		b[len(b)-1] = b[len(b)-1][:0]
		return b
	}
	return append(b, nil)
}

// groupLabels returns the sorted node IDs of the non-virtual destinations in
// the subtree rooted at pivot p. The result lives in a.groupBuf and is valid
// until the next groupLabels or split-check call.
func (a *arena) groupLabels(tree *steiner.Tree, p int) []int {
	group := tree.AppendSubtreeLabels(p, 0, a.groupBuf[:0])
	sort.Ints(group)
	a.groupBuf = group
	return group
}

// enterPerimeter starts perimeter mode (§4.1): all void destinations travel
// in a single copy aimed at their average location over the local planar
// adjacency.
func (g *GMP) enterPerimeter(a *arena, v view.NodeView, pkt *sim.Packet, voids []int) []sim.Forward {
	locs := a.locBuf[:0]
	for _, d := range voids {
		locs = append(locs, pkt.LocOf(d))
	}
	a.locBuf = locs
	avg := geom.Centroid(locs)
	st := view.PerimeterEnter(v, avg)
	return g.stepPerimeter(v, pkt, voids, st)
}

// stepPerimeter advances the supervised face traversal one hop and emits the
// perimeter copy. A dead end or a watchdog kill abandons only the void
// destinations — any recovered groups already left in their own copies.
func (g *GMP) stepPerimeter(v view.NodeView, pkt *sim.Packet, voids []int, st planar.State) []sim.Forward {
	next, nst, verdict := view.PerimeterStep(v, st)
	copyPkt := pkt.CloneFor(sortedCopy(voids))
	switch verdict {
	case view.StepDead:
		return dropOnly(copyPkt)
	case view.StepWatchdog:
		return watchdogDrop(copyPkt)
	}
	copyPkt.Perimeter = true
	copyPkt.Peri = nst
	return []sim.Forward{{To: next, Pkt: copyPkt}}
}

// recoverPerimeter handles a perimeter-mode packet (§4.1 steps 4–7): first
// re-run the full GMP grouping; groups that now have valid next hops leave
// perimeter mode. If nothing recovered, continue the same traversal; if
// some groups recovered, start a fresh traversal toward the new average of
// the still-void destinations.
//
// Recovery is attempted only once the packet is strictly closer to the
// perimeter target than its entry point — the standard GPSR exit rule the
// paper's §4.1 refers to ("similar to the one used by PBM [21]"). Without
// it, the literal step-4 re-run lets a packet ping-pong forever between a
// void node and the neighbor that first absorbed it.
func (g *GMP) recoverPerimeter(a *arena, v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if v.Pos().Dist(pkt.Peri.Target) >= pkt.Peri.Entry.Dist(pkt.Peri.Target)-geom.Eps {
		return g.stepPerimeter(v, pkt, pkt.Dests, pkt.Peri)
	}
	fwds, voids := g.forwardGroups(a, v, pkt)
	switch {
	case len(voids) == 0:
		// Fully recovered.
		return fwds
	case len(voids) == len(pkt.Dests):
		// No progress: keep traversing with the same average destination
		// and face state.
		return append(fwds, g.stepPerimeter(v, pkt, voids, pkt.Peri)...)
	default:
		// Partial recovery: fresh perimeter round for the remainder.
		return append(fwds, g.enterPerimeter(a, v, pkt, voids)...)
	}
}
