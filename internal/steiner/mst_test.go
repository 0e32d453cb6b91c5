package steiner

import (
	"math/rand"
	"testing"

	"gmp/internal/geom"
)

func TestEuclideanMSTEmpty(t *testing.T) {
	tr := new(Builder).EuclideanMST(geom.Pt(0, 0), nil)
	if tr.NumVertices() != 1 || tr.NumEdges() != 0 {
		t.Fatal("empty MST should be just the source")
	}
}

func TestEuclideanMSTLine(t *testing.T) {
	// Collinear points: the MST is the chain, total length = span.
	src := geom.Pt(0, 0)
	dests := []Dest{
		{Pos: geom.Pt(30, 0), Label: 0},
		{Pos: geom.Pt(10, 0), Label: 1},
		{Pos: geom.Pt(20, 0), Label: 2},
	}
	tr := new(Builder).EuclideanMST(src, dests)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.TotalLength(); got < 30-1e-9 || got > 30+1e-9 {
		t.Fatalf("MST length = %v, want 30", got)
	}
	// The source has exactly one child: the nearest destination.
	pivots := tr.Pivots()
	if len(pivots) != 1 || tr.Vertex(pivots[0]).Label != 1 {
		t.Fatalf("pivots = %v, want the nearest dest", pivots)
	}
}

func TestEuclideanMSTNoVirtuals(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	dests := randDests(r, 15, 1000)
	tr := new(Builder).EuclideanMST(geom.Pt(500, 500), dests)
	for _, v := range tr.Vertices() {
		if v.Kind == Virtual {
			t.Fatal("MST must not contain virtual vertices")
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumEdges() != 15 {
		t.Fatalf("MST on 16 vertices must have 15 edges, got %d", tr.NumEdges())
	}
}

func TestEuclideanMSTMatchesMSTLength(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 50; trial++ {
		src := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		dests := randDests(r, 2+r.Intn(20), 1000)
		tr := new(Builder).EuclideanMST(src, dests)
		pts := []geom.Point{src}
		for _, d := range dests {
			pts = append(pts, d.Pos)
		}
		want := MSTLength(pts)
		if got := tr.TotalLength(); got < want-1e-6 || got > want+1e-6 {
			t.Fatalf("trial %d: tree length %v != MSTLength %v", trial, got, want)
		}
	}
}

func TestMSTLengthSmallCases(t *testing.T) {
	if got := MSTLength(nil); got != 0 {
		t.Fatalf("MSTLength(nil) = %v", got)
	}
	if got := MSTLength([]geom.Point{geom.Pt(1, 1)}); got != 0 {
		t.Fatalf("MSTLength(single) = %v", got)
	}
	got := MSTLength([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)})
	if got < 5-1e-9 || got > 5+1e-9 {
		t.Fatalf("MSTLength(pair) = %v, want 5", got)
	}
}

func TestMSTLengthIsMinimalAgainstRandomSpanningTrees(t *testing.T) {
	// Property: the MST is no longer than random spanning trees built by a
	// random Prim-like growth.
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 30; trial++ {
		n := 4 + r.Intn(10)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*500, r.Float64()*500)
		}
		mst := MSTLength(pts)
		// Random spanning tree: connect each vertex i>0 to a random earlier
		// vertex.
		var randTree float64
		for i := 1; i < n; i++ {
			j := r.Intn(i)
			randTree += pts[i].Dist(pts[j])
		}
		if mst > randTree+1e-9 {
			t.Fatalf("trial %d: MST %v longer than a random spanning tree %v", trial, mst, randTree)
		}
	}
}
