package view

import (
	"reflect"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
)

// lineNetwork builds an n-node chain with 100 m spacing and 150 m range.
func lineNetwork(t *testing.T, n int) *network.Network {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*100, 0)
	}
	nw, err := network.New(network.FromPoints(pts), float64(n)*100, 200, 150)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestLiveNbrPosOKAtOrigin is the zero-Point regression test: a node sitting
// exactly at the origin advertises the position (0,0), which is identical to
// the zero value NbrPos returns for an unknown ID. NbrPosOK must tell the
// two apart.
func TestLiveNbrPosOKAtOrigin(t *testing.T) {
	l := NewLive(
		[]geom.Point{geom.Pt(50, 0), geom.Pt(0, 0)},
		[][]Neighbor{
			{{ID: 1, Pos: geom.Pt(0, 0)}},
			{{ID: 0, Pos: geom.Pt(50, 0)}},
		},
		LiveConfig{RadioRange: 100, Planarizer: planar.Gabriel},
	)
	v := l.At(0)

	if p, ok := v.NbrPosOK(1); !ok || p != geom.Pt(0, 0) {
		t.Fatalf("neighbor at origin: pos=%v ok=%v, want (0,0)/true", p, ok)
	}
	if p, ok := v.NbrPosOK(7); ok {
		t.Fatalf("unknown ID must report ok=false, got pos=%v ok=%v", p, ok)
	}
	// The plain lookup returns identical points for both — the ambiguity
	// NbrPosOK exists to resolve.
	if v.NbrPos(1) != v.NbrPos(7) {
		t.Fatal("test premise broken: origin neighbor and unknown ID should collide under NbrPos")
	}
	// Self is always in view.
	if p, ok := v.NbrPosOK(0); !ok || p != geom.Pt(50, 0) {
		t.Fatalf("self lookup: pos=%v ok=%v", p, ok)
	}
}

// TestOracleNbrPosOK: every valid node ID is in an oracle view; out-of-range
// IDs are not.
func TestOracleNbrPosOK(t *testing.T) {
	nw := lineNetwork(t, 3)
	o := NewOracle(nw, nil)
	v := o.At(0)
	if _, ok := v.NbrPosOK(2); !ok {
		t.Fatal("oracle must know every valid node")
	}
	if _, ok := v.NbrPosOK(3); ok {
		t.Fatal("oracle must reject out-of-range IDs")
	}
	if _, ok := v.NbrPosOK(-1); ok {
		t.Fatal("oracle must reject negative IDs")
	}
}

// TestMaskedFiltersAllAdjacencies: a Masked view removes banned IDs from
// every adjacency accessor while leaving position knowledge intact.
func TestMaskedFiltersAllAdjacencies(t *testing.T) {
	l := NewLive(
		[]geom.Point{geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(0, 80), geom.Pt(80, 80)},
		[][]Neighbor{
			{{ID: 1, Pos: geom.Pt(80, 0)}, {ID: 2, Pos: geom.Pt(0, 80)}, {ID: 3, Pos: geom.Pt(80, 80)}},
			{{ID: 0, Pos: geom.Pt(0, 0)}},
			{{ID: 0, Pos: geom.Pt(0, 0)}},
			{{ID: 0, Pos: geom.Pt(0, 0)}},
		},
		LiveConfig{
			RadioRange: 150,
			Planarizer: planar.Gabriel,
			Watchdog:   WatchdogLimits{MaxWalkHops: 10},
		},
	)
	base := l.At(0)
	m := NewMasked(base, map[int]bool{1: true})

	if got := m.Neighbors(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Fatalf("masked Neighbors = %v, want [2 3]", got)
	}
	if m.Degree() != 2 {
		t.Fatalf("masked Degree = %d, want 2", m.Degree())
	}
	for _, n := range m.PlanarNeighbors() {
		if n == 1 {
			t.Fatal("banned ID leaked into PlanarNeighbors")
		}
	}
	for _, n := range m.AltPlanarNeighbors() {
		if n == 1 {
			t.Fatal("banned ID leaked into AltPlanarNeighbors")
		}
	}
	// Position knowledge survives the ban: the link is dead, not the node's
	// advertised location.
	if p, ok := m.NbrPosOK(1); !ok || p != geom.Pt(80, 0) {
		t.Fatalf("banned neighbor position lost: %v %v", p, ok)
	}
	// The watchdog capability passes through.
	if wd := m.PerimeterWatchdog(); wd.MaxWalkHops != 10 {
		t.Fatalf("watchdog limits not delegated: %+v", wd)
	}
	// Unmasked accessors unchanged.
	if got := base.Neighbors(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("base Neighbors mutated: %v", got)
	}
}

// TestMaskedPlanarBearingsParallel: a Masked view's bearings come from its
// filtered planar adjacency, not the base view's — entry i is the bearing to
// PlanarNeighbors()[i] — for both providers, with a planar neighbor banned.
func TestMaskedPlanarBearingsParallel(t *testing.T) {
	nw := lineNetwork(t, 5)
	tables := make([][]Neighbor, nw.Len())
	selfPos := make([]geom.Point, nw.Len())
	for i := range tables {
		selfPos[i] = nw.Pos(i)
		for _, n := range nw.Neighbors(i) {
			tables[i] = append(tables[i], Neighbor{ID: n, Pos: nw.Pos(n)})
		}
	}
	providers := map[string]Provider{
		"oracle": NewOracle(nw, planar.Planarize(nw, planar.Gabriel)),
		"live":   NewLive(selfPos, tables, LiveConfig{RadioRange: nw.Range(), Planarizer: planar.Gabriel}),
	}
	for name, p := range providers {
		base := p.At(2)
		if got := len(base.PlanarBearings()); got != 2 || len(base.PlanarNeighbors()) != 2 {
			t.Fatalf("%s: node 2 has %d planar bearings, want 2 (chain neighbors)", name, got)
		}
		m := NewMasked(base, map[int]bool{base.PlanarNeighbors()[0]: true})
		nbrs, bearings := m.PlanarNeighbors(), m.PlanarBearings()
		if len(nbrs) != 1 || len(bearings) != len(nbrs) {
			t.Fatalf("%s: masked adjacency %v with %d bearings, want one of each", name, nbrs, len(bearings))
		}
		for i, n := range nbrs {
			if want := geom.Bearing(m.PlanarSelfPos(), m.PlanarPos(n)); bearings[i] != want {
				t.Fatalf("%s: masked bearing %d = %v, want %v toward %d", name, i, bearings[i], want, n)
			}
		}
	}
}

// TestWatchdogLimitsArmed: the zero value is disarmed; either bound arms it.
func TestWatchdogLimitsArmed(t *testing.T) {
	if (WatchdogLimits{}).Armed() {
		t.Fatal("zero limits must be disarmed")
	}
	if !(WatchdogLimits{MaxWalkHops: 1}).Armed() {
		t.Fatal("hop bound must arm")
	}
	if !(WatchdogLimits{MaxWalkDist: 1}).Armed() {
		t.Fatal("distance bound must arm")
	}
}
