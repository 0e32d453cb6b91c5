package view

import (
	"sort"

	"gmp/internal/geom"
	"gmp/internal/planar"
)

// Neighbor is one entry of a node's neighbor table: an ID and the position
// that neighbor's most recent HELLO beacon advertised. Staleness and
// localization error live entirely in Pos — the adapter that samples the
// table decides how wrong it is.
type Neighbor struct {
	ID  int
	Pos geom.Point
}

// Live is a Provider backed by per-node neighbor-table snapshots — the §2
// model taken literally. Each node's planar adjacency is computed from its
// own table with the same local GG/RNG rule a real node would run; there is
// no global planarization pass and no position oracle beyond the tables.
//
// With perfectly fresh, error-free tables a Live provider is
// decision-for-decision identical to the Oracle over the same network
// (asserted by the experiment package's equivalence test).
type Live struct {
	nodes []liveView
}

// LiveConfig carries the per-provider constants of a Live view set.
type LiveConfig struct {
	// RadioRange is the nodes' radio range in meters.
	RadioRange float64
	// Planarizer selects the perimeter-substrate rule (Gabriel/RNG).
	Planarizer planar.Kind
	// Watchdog arms the perimeter watchdog on every view; the zero value
	// disarms it. Live tables with ghost or missing entries can make
	// neighboring local planarizations disagree, and a face traversal over
	// disagreeing adjacencies may never terminate — the watchdog is the
	// bound on that.
	Watchdog WatchdogLimits
}

// NewLive builds a table-backed provider. selfPos[i] is node i's own
// (GPS-known) position; tables[i] is node i's neighbor table, which NewLive
// sorts by ID. The planar adjacency of each node is derived lazily from its
// table on first perimeter use.
func NewLive(selfPos []geom.Point, tables [][]Neighbor, cfg LiveConfig) *Live {
	l := &Live{nodes: make([]liveView, len(selfPos))}
	for i := range l.nodes {
		tbl := tables[i]
		sort.Slice(tbl, func(a, b int) bool { return tbl[a].ID < tbl[b].ID })
		ids := make([]int, len(tbl))
		for j, e := range tbl {
			ids[j] = e.ID
		}
		l.nodes[i] = liveView{
			id:  i,
			pos: selfPos[i],
			tbl: tbl,
			ids: ids,
			cfg: cfg,
		}
	}
	return l
}

// At implements Provider.
func (l *Live) At(id int) NodeView { return &l.nodes[id] }

// liveView is one node's table-backed view.
type liveView struct {
	id  int
	pos geom.Point
	tbl []Neighbor // sorted by ID
	ids []int      // tbl[i].ID, shared with Neighbors()
	cfg LiveConfig

	planarOnce bool
	planarAdj  []int
	bearings   []float64 // parallel to planarAdj
	altOnce    bool
	altAdj     []int
}

func (v *liveView) Self() int        { return v.id }
func (v *liveView) Pos() geom.Point  { return v.pos }
func (v *liveView) Neighbors() []int { return v.ids }
func (v *liveView) Degree() int      { return len(v.ids) }
func (v *liveView) Range() float64   { return v.cfg.RadioRange }

// NbrPos looks the ID up in the table (binary search — the table is sorted).
// Self's own position is always known; IDs absent from the table are outside
// the view and yield the zero Point — indistinguishable from a node at the
// origin, so callers that may hold a foreign ID must use NbrPosOK.
func (v *liveView) NbrPos(id int) geom.Point {
	p, _ := v.NbrPosOK(id)
	return p
}

// NbrPosOK implements the miss-distinguishing lookup: ok is false when id is
// neither Self nor in the neighbor table.
func (v *liveView) NbrPosOK(id int) (geom.Point, bool) {
	if id == v.id {
		return v.pos, true
	}
	i := sort.SearchInts(v.ids, id)
	if i < len(v.ids) && v.ids[i] == id {
		return v.tbl[i].Pos, true
	}
	return geom.Point{}, false
}

// PerimeterWatchdog implements WatchdogCarrier.
func (v *liveView) PerimeterWatchdog() WatchdogLimits { return v.cfg.Watchdog }

// AltPlanarNeighbors implements AltPlanarView: the same neighbor table
// planarized under the alternate rule, computed lazily.
func (v *liveView) AltPlanarNeighbors() []int {
	if !v.altOnce {
		v.altAdj = planar.LocalAdjacency(v.pos, v.ids, v.NbrPos, v.cfg.Planarizer.Alternate())
		v.altOnce = true
	}
	return v.altAdj
}

// PlanarSelfPos: a live node's perimeter substrate is its own advertised
// knowledge — there is no separate oracle.
func (v *liveView) PlanarSelfPos() geom.Point { return v.pos }

func (v *liveView) PlanarPos(id int) geom.Point { return v.NbrPos(id) }

// PlanarNeighbors runs the local GG/RNG rule over the neighbor table on
// first use and caches the adjacency with its bearings.
func (v *liveView) PlanarNeighbors() []int {
	if !v.planarOnce {
		v.planarAdj = planar.LocalAdjacency(v.pos, v.ids, v.NbrPos, v.cfg.Planarizer)
		v.bearings = bearingsTo(v.pos, v.planarAdj, v.NbrPos)
		v.planarOnce = true
	}
	return v.planarAdj
}

func (v *liveView) PlanarBearings() []float64 {
	v.PlanarNeighbors()
	return v.bearings
}
