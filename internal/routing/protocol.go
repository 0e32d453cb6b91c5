// Package routing implements the multicast routing protocols evaluated in
// the paper: GMP and its GMPnr ablation (§4), and the baselines LGS and LGK
// (Chen & Nahrstedt [5]), PBM (Mauve et al. [21]), GRD (independent greedy
// geographic unicast, the per-destination lower bound), and SMT (centralized
// Kou–Markowsky–Berman source routing [16]).
//
// Every protocol is a sim.Handler: each hop is a pure decision function from
// a node-local view and a packet to a forward list, which the simulation
// engine applies. Decisions see only what the paper's §2 model grants a real
// node — its own position, its 1-hop neighbor table (view.NodeView), and the
// destination locations carried in the packet header. The one sanctioned
// exception is SMT, whose *source* is defined to know the whole network; its
// per-hop decisions are still local.
package routing

import (
	"math"
	"sort"

	"gmp/internal/geom"
	"gmp/internal/sim"
	"gmp/internal/steiner"
	"gmp/internal/view"
)

// Protocol is a named routing protocol usable by the experiment harness.
type Protocol interface {
	sim.Handler
	// Name is the series label used in tables ("GMP", "LGS", …).
	Name() string
}

// appendHeaderDests converts the packet header into the steiner package's
// destination records — the IDs with the locations the wire format
// carries — appending them to buf (pass buf[:0] of an arena slice).
func appendHeaderDests(buf []steiner.Dest, pkt *sim.Packet) []steiner.Dest {
	for i, id := range pkt.Dests {
		buf = append(buf, steiner.Dest{Pos: pkt.Locs[i], Label: id})
	}
	return buf
}

// locIndex builds a destination→header-location lookup for one decision.
func locIndex(pkt *sim.Packet) map[int]geom.Point {
	m := make(map[int]geom.Point, len(pkt.Dests))
	for i, d := range pkt.Dests {
		m[d] = pkt.Locs[i]
	}
	return m
}

// sumDistTo returns Σ_{d∈dests} dist(p, loc[d]), accumulated in dests order.
func sumDistTo(p geom.Point, dests []int, loc map[int]geom.Point) float64 {
	var total float64
	for _, d := range dests {
		total += p.Dist(loc[d])
	}
	return total
}

// groupNextHop implements GMP's next-hop selection (paper Figure 7 step 4):
// among the deciding node's neighbors, pick the one closest to the pivot
// location subject to the loop-freedom constraint that its total distance to
// the group's destinations is strictly below the current node's. Returns -1
// when no neighbor qualifies (a void for this group). Dead neighbors never
// appear: after an ARQ give-up the engine hands out views that mask the
// blacklisted link.
//
// The rule is a conjunction, so the loop tests the cheap conjunct first and
// does only the work that can change the answer. A neighbor no closer to the
// pivot than the best so far cannot become best whatever its Σ-distance, so
// it is dropped on its pivot distance — first on a squared-distance bound
// that spares the square root, then on the exact distance. Only a neighbor
// that would become best pays for its Σ-distance, and that sum stops once it
// reaches the current node's. Ties keep the first neighbor in Neighbors()
// order, as a full evaluation does, so the choice is the same neighbor in
// every case (DESIGN.md §2.3).
//
// Callers must have primed the arena's distance memo for the current packet
// (a.memo.begin) — the Σ-distance terms are memoized there because GMP's
// split loop re-evaluates heavily overlapping groups.
func (a *arena) groupNextHop(v view.NodeView, pivot geom.Point, group []int) int {
	a.colBuf = a.memo.cols(group, a.colBuf[:0])
	cols := a.colBuf
	curTotal := a.memo.sumRow(0, v.Pos(), cols, math.Inf(1))
	best, bestD, bestBound := -1, math.Inf(1), math.Inf(1)
	for i, n := range v.Neighbors() {
		np := v.NbrPos(n)
		if np.Dist2(pivot) > bestBound {
			continue
		}
		d := np.Dist(pivot)
		if d >= bestD {
			continue
		}
		if a.memo.sumRow(i+1, np, cols, curTotal) >= curTotal {
			continue
		}
		best, bestD, bestBound = n, d, dist2Bound(d)
	}
	return best
}

// dist2Bound returns a squared-distance threshold above which a point is
// certainly no closer than d: a Dist2 above d²·(1+1e-9) exceeds every
// rounding error of Dist2 and Dist by a factor of about 10⁶, so that
// point's Dist is >= d. For d too small for d² to be a normal float the
// bound is +Inf: no point is dropped on it and the exact test decides.
func dist2Bound(d float64) float64 {
	if d < 1e-150 {
		return math.Inf(1)
	}
	return d * d * (1 + 1e-9)
}

// greedyNextHop returns the neighbor of the deciding node closest to target,
// provided it is strictly closer to target than the node itself; -1
// otherwise. This is the classical greedy geographic forwarding step used by
// GRD and LGS.
func greedyNextHop(v view.NodeView, target geom.Point) int {
	curD := v.Pos().Dist(target)
	best, bestD := -1, curD
	for _, n := range v.Neighbors() {
		if d := v.NbrPos(n).Dist(target); d < bestD {
			best, bestD = n, d
		}
	}
	return best
}

// dropOnly is the single-element forward list abandoning pkt.
func dropOnly(pkt *sim.Packet) []sim.Forward {
	return []sim.Forward{{To: sim.DropCopy, Pkt: pkt}}
}

// watchdogDrop abandons pkt with watchdog attribution: the perimeter
// watchdog detected a non-terminating face traversal and its bounded
// recovery is spent.
func watchdogDrop(pkt *sim.Packet) []sim.Forward {
	return []sim.Forward{{To: sim.DropWatchdog, Pkt: pkt}}
}

// sortedCopy returns a sorted copy of ids (protocol output must not depend
// on map iteration order anywhere).
func sortedCopy(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}
