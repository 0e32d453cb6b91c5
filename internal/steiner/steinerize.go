package steiner

import "gmp/internal/geom"

// steinerizeMinGain is the relative improvement an insertion must achieve;
// it stops the refinement loop once gains fall into numerical noise.
const steinerizeMinGain = 1e-9

// steinerizeOnce finds the corner with the largest insertion gain and
// replaces it; it reports whether an insertion happened.
func steinerizeOnce(tree *Tree) bool {
	type corner struct {
		v, a, b int
		gain    float64
		at      geom.Point
	}
	best := corner{gain: 0}
	for v := 0; v < tree.NumVertices(); v++ {
		idxs := tree.adj[v]
		if len(idxs) < 2 {
			continue
		}
		vp := tree.Vertex(v).Pos
		// Iterate neighbor pairs straight off the adjacency (same order as
		// Neighbors would return) without materializing the neighbor slice.
		for i := 0; i < len(idxs); i++ {
			for j := i + 1; j < len(idxs); j++ {
				a, b := tree.edgeOther(idxs[i], v), tree.edgeOther(idxs[j], v)
				ap, bp := tree.Vertex(a).Pos, tree.Vertex(b).Pos
				t := geom.SteinerPoint(vp, ap, bp)
				if t.Eq(vp) || t.Eq(ap) || t.Eq(bp) {
					continue // corner already optimal (angle ≥ 120°)
				}
				old := vp.Dist(ap) + vp.Dist(bp)
				new := t.Dist(vp) + t.Dist(ap) + t.Dist(bp)
				if gain := old - new; gain > best.gain {
					best = corner{v: v, a: a, b: b, gain: gain, at: t}
				}
			}
		}
	}
	scale := tree.TotalLength()
	if scale <= 0 || best.gain <= steinerizeMinGain*scale {
		return false
	}
	w := tree.AddVirtual(best.at)
	tree.RemoveEdge(best.v, best.a)
	tree.RemoveEdge(best.v, best.b)
	tree.AddEdge(w, best.v)
	tree.AddEdge(w, best.a)
	tree.AddEdge(w, best.b)
	return true
}
