package steiner

import (
	"math"
	"math/rand"
	"testing"

	"gmp/internal/geom"
)

func TestSteinerizedMSTNeverLongerThanMST(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	for trial := 0; trial < 200; trial++ {
		src := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		dests := randDests(r, 2+r.Intn(20), 1000)
		mst := new(Builder).EuclideanMST(src, dests).TotalLength()
		st := new(Builder).SteinerizedMST(src, dests)
		if err := st.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := st.TotalLength(); got > mst+1e-9 {
			t.Fatalf("trial %d: steinerized %v above MST %v", trial, got, mst)
		}
	}
}

func TestSteinerizedMSTUnitSquareNearOptimal(t *testing.T) {
	// Source at one corner, destinations at the other three: the optimum is
	// 1+√3 ≈ 2.732; corner Steinerization must get within a few percent,
	// far below the MST's 3.
	src := geom.Pt(0, 0)
	dests := []Dest{
		{Pos: geom.Pt(1, 0), Label: 0},
		{Pos: geom.Pt(1, 1), Label: 1},
		{Pos: geom.Pt(0, 1), Label: 2},
	}
	got := new(Builder).SteinerizedMST(src, dests).TotalLength()
	want := 1 + math.Sqrt(3)
	if got > want*1.03 {
		t.Fatalf("unit square steinerized = %v, want ≤ %v", got, want*1.03)
	}
	if got < want-1e-6 {
		t.Fatalf("steinerized %v below the optimum %v — length accounting broken", got, want)
	}
}

func TestSteinerizedMSTEquilateralExact(t *testing.T) {
	// Source plus two destinations forming an equilateral triangle: one
	// corner insertion reaches the exact Fermat optimum.
	src := geom.Pt(0, 0)
	dests := []Dest{
		{Pos: geom.Pt(1, 0), Label: 0},
		{Pos: geom.Pt(0.5, math.Sqrt(3)/2), Label: 1},
	}
	got := new(Builder).SteinerizedMST(src, dests).TotalLength()
	want := math.Sqrt(3)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("equilateral steinerized = %v, want %v", got, want)
	}
}

func TestSteinerizedMSTPreservesTerminals(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	dests := randDests(r, 12, 1000)
	tree := new(Builder).SteinerizedMST(geom.Pt(500, 500), dests)
	if got := len(tree.TerminalIDs()); got != 12 {
		t.Fatalf("terminals = %d", got)
	}
	seen := map[int]bool{}
	for _, id := range tree.TerminalIDs() {
		seen[tree.Vertex(id).Label] = true
	}
	if len(seen) != 12 {
		t.Fatal("labels lost")
	}
}

func TestSteinerizedMSTCollinearNoVirtuals(t *testing.T) {
	src := geom.Pt(0, 0)
	dests := []Dest{
		{Pos: geom.Pt(100, 0), Label: 0},
		{Pos: geom.Pt(200, 0), Label: 1},
		{Pos: geom.Pt(300, 0), Label: 2},
	}
	tree := new(Builder).SteinerizedMST(src, dests)
	for _, v := range tree.Vertices() {
		if v.Kind == Virtual {
			t.Fatalf("collinear chain gained a virtual vertex at %v", v.Pos)
		}
	}
	if got := tree.TotalLength(); math.Abs(got-300) > 1e-9 {
		t.Fatalf("length = %v", got)
	}
}

func TestSteinerizedVsReferenceAt4(t *testing.T) {
	// On 4-terminal instances the steinerized tree must stay close to the
	// near-optimal reference (it is a local optimum of the same objective).
	r := rand.New(rand.NewSource(97))
	var stSum, refSum float64
	for trial := 0; trial < 200; trial++ {
		src := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		dests := randDests(r, 3, 1000)
		pts := []geom.Point{src, dests[0].Pos, dests[1].Pos, dests[2].Pos}
		stSum += new(Builder).SteinerizedMST(src, dests).TotalLength()
		refSum += ReferenceLength(pts)
	}
	if stSum > refSum*1.05 {
		t.Fatalf("steinerized mean %v more than 5%% above reference %v", stSum/200, refSum/200)
	}
	if stSum < refSum-1e-6 {
		t.Fatalf("steinerized mean %v below the reference %v", stSum/200, refSum/200)
	}
}
