package view

import (
	"gmp/internal/geom"
)

// Masked decorates a NodeView with a dead-neighbor exclusion set: the
// engine's per-session blacklist of neighbors hop-by-hop ARQ gave up on at
// this node. Every adjacency accessor — Neighbors, Degree, PlanarNeighbors,
// AltPlanarNeighbors — filters the banned IDs out, so *all* decision paths
// (greedy, grouping, perimeter) route around the dead link, not just the one
// copy the NACK callback re-routes.
//
// Position knowledge is NOT masked: a failed link says the neighbor is
// unreachable, not that its advertised position became unknown. For the same
// reason the planar adjacency is filtered rather than re-planarized — the
// banned node still exists as a GG/RNG witness; only the edge to it is
// unusable. Filtering can leave the masked "planar" adjacency non-planar, so
// face traversals over it may loop; the perimeter watchdog is the bound on
// that.
type Masked struct {
	base   NodeView
	banned map[int]bool

	nbrs       []int
	planarOnce bool
	planarAdj  []int
	bearings   []float64 // parallel to the filtered planarAdj
	altOnce    bool
	altAdj     []int
}

// NewMasked wraps base with the banned exclusion set. The map is referenced,
// not copied — the engine builds a fresh Masked whenever the set grows (the
// filtered adjacencies are cached eagerly-on-first-use and would go stale).
func NewMasked(base NodeView, banned map[int]bool) *Masked {
	return &Masked{base: base, banned: banned}
}

func (m *Masked) Self() int       { return m.base.Self() }
func (m *Masked) Pos() geom.Point { return m.base.Pos() }
func (m *Masked) Range() float64  { return m.base.Range() }

func (m *Masked) NbrPos(id int) geom.Point           { return m.base.NbrPos(id) }
func (m *Masked) NbrPosOK(id int) (geom.Point, bool) { return m.base.NbrPosOK(id) }
func (m *Masked) PlanarSelfPos() geom.Point          { return m.base.PlanarSelfPos() }
func (m *Masked) PlanarPos(id int) geom.Point        { return m.base.PlanarPos(id) }

// filter returns ids minus the banned set, preserving order.
func (m *Masked) filter(ids []int) []int {
	kept := make([]int, 0, len(ids))
	for _, n := range ids {
		if !m.banned[n] {
			kept = append(kept, n)
		}
	}
	return kept
}

// Neighbors returns the base neighbors minus the banned set.
func (m *Masked) Neighbors() []int {
	if m.nbrs == nil {
		m.nbrs = m.filter(m.base.Neighbors())
	}
	return m.nbrs
}

// Degree returns len(Neighbors()).
func (m *Masked) Degree() int { return len(m.Neighbors()) }

// PlanarNeighbors returns the base planar adjacency minus the banned set
// (CCW order is preserved by filtering).
func (m *Masked) PlanarNeighbors() []int {
	if !m.planarOnce {
		m.planarAdj = m.filter(m.base.PlanarNeighbors())
		m.bearings = bearingsTo(m.base.PlanarSelfPos(), m.planarAdj, m.base.PlanarPos)
		m.planarOnce = true
	}
	return m.planarAdj
}

// PlanarBearings is computed from the filtered adjacency: the base view's
// bearings are parallel to the unfiltered one.
func (m *Masked) PlanarBearings() []float64 {
	m.PlanarNeighbors()
	return m.bearings
}

// PerimeterWatchdog implements WatchdogCarrier by delegation; a base view
// without the capability leaves the watchdog disarmed.
func (m *Masked) PerimeterWatchdog() WatchdogLimits {
	if wc, ok := m.base.(WatchdogCarrier); ok {
		return wc.PerimeterWatchdog()
	}
	return WatchdogLimits{}
}

// AltPlanarNeighbors implements AltPlanarView by delegation + filtering.
func (m *Masked) AltPlanarNeighbors() []int {
	if !m.altOnce {
		if av, ok := m.base.(AltPlanarView); ok {
			m.altAdj = m.filter(av.AltPlanarNeighbors())
		}
		m.altOnce = true
	}
	return m.altAdj
}
