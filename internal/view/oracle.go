package view

import (
	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
)

// Oracle is the ideal-knowledge Provider: every node's view is backed
// directly by the network (advertised positions, which include any reported-
// position overlay the experiment installed) and by a globally planarized
// graph (substrate positions). This models the paper's evaluation setting —
// perfect, instantaneous HELLO beacons.
type Oracle struct {
	nw    *network.Network
	pg    *planar.Graph
	nodes []oracleView
	wd    WatchdogLimits
	// altAdj lazily caches per-node alternate-rule planar adjacencies for
	// the watchdog's restart path (nil entries = not yet computed).
	altAdj [][]int
}

// NewOracle builds the ideal provider over nw, using pg as the perimeter
// substrate. pg may be planarized over a different (non-overlaid) network
// than nw — the staleness experiment does exactly that — or nil when no
// protocol will enter perimeter mode (planar accessors then fall back to
// nw itself, with an empty adjacency).
func NewOracle(nw *network.Network, pg *planar.Graph) *Oracle {
	o := &Oracle{nw: nw, pg: pg}
	o.nodes = make([]oracleView, nw.Len())
	for i := range o.nodes {
		o.nodes[i] = oracleView{o: o, id: i}
	}
	if pg != nil {
		// Allocated eagerly (not on first use) so that under the sharded
		// kernel concurrent tiles only ever write disjoint per-node entries,
		// never the slice header itself.
		o.altAdj = make([][]int, nw.Len())
	}
	return o
}

// At implements Provider.
func (o *Oracle) At(id int) NodeView { return &o.nodes[id] }

// SetWatchdog arms (or, with the zero value, disarms) the perimeter
// watchdog on every view this provider hands out.
func (o *Oracle) SetWatchdog(w WatchdogLimits) { o.wd = w }

// altNeighbors returns node id's planar adjacency under the alternate rule,
// computing and caching it on first use. The substrate is the planar
// graph's network, exactly as PlanarNeighbors uses it.
func (o *Oracle) altNeighbors(id int) []int {
	if o.pg == nil {
		return nil
	}
	if o.altAdj[id] == nil {
		nw := o.pg.Network()
		adj := planar.LocalAdjacency(nw.Pos(id), nw.Neighbors(id), nw.Pos, o.pg.Kind().Alternate())
		if adj == nil {
			adj = []int{} // distinguish "computed, empty" from "not yet"
		}
		o.altAdj[id] = adj
	}
	return o.altAdj[id]
}

// oracleView is one node's ideal view.
type oracleView struct {
	o        *Oracle
	id       int
	bearings []float64 // parallel to PlanarNeighbors; nil = not yet computed
}

func (v *oracleView) Self() int        { return v.id }
func (v *oracleView) Pos() geom.Point  { return v.o.nw.Pos(v.id) }
func (v *oracleView) Neighbors() []int { return v.o.nw.Neighbors(v.id) }
func (v *oracleView) Degree() int      { return v.o.nw.Degree(v.id) }
func (v *oracleView) Range() float64   { return v.o.nw.Range() }

func (v *oracleView) NbrPos(id int) geom.Point { return v.o.nw.Pos(id) }

// NbrPosOK: the oracle knows every node's advertised position, so any valid
// node ID is in view.
func (v *oracleView) NbrPosOK(id int) (geom.Point, bool) {
	if id < 0 || id >= v.o.nw.Len() {
		return geom.Point{}, false
	}
	return v.o.nw.Pos(id), true
}

// PerimeterWatchdog implements WatchdogCarrier.
func (v *oracleView) PerimeterWatchdog() WatchdogLimits { return v.o.wd }

// AltPlanarNeighbors implements AltPlanarView.
func (v *oracleView) AltPlanarNeighbors() []int { return v.o.altNeighbors(v.id) }

func (v *oracleView) PlanarSelfPos() geom.Point {
	if v.o.pg == nil {
		return v.o.nw.Pos(v.id)
	}
	return v.o.pg.Network().Pos(v.id)
}

func (v *oracleView) PlanarNeighbors() []int {
	if v.o.pg == nil {
		return nil
	}
	return v.o.pg.Neighbors(v.id)
}

func (v *oracleView) PlanarBearings() []float64 {
	if v.bearings == nil && v.o.pg != nil {
		v.bearings = bearingsTo(v.PlanarSelfPos(), v.PlanarNeighbors(), v.PlanarPos)
	}
	return v.bearings
}

func (v *oracleView) PlanarPos(id int) geom.Point {
	if v.o.pg == nil {
		return v.o.nw.Pos(id)
	}
	return v.o.pg.Network().Pos(id)
}
