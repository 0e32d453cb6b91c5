package steiner

import (
	"math"
	"math/rand"
	"testing"

	"gmp/internal/geom"
)

func TestReferenceLengthSmallCases(t *testing.T) {
	if got := ReferenceLength(nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := ReferenceLength([]geom.Point{geom.Pt(1, 1)}); got != 0 {
		t.Fatalf("single = %v", got)
	}
	got := ReferenceLength([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 4)})
	if math.Abs(got-5) > 1e-12 {
		t.Fatalf("pair = %v", got)
	}
	// Equilateral triangle side 1: SMT = sqrt(3).
	tri := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0.5, math.Sqrt(3)/2)}
	got = ReferenceLength(tri)
	if math.Abs(got-math.Sqrt(3)) > 1e-9 {
		t.Fatalf("triangle = %v, want %v", got, math.Sqrt(3))
	}
}

func TestReferenceLengthUnitSquare(t *testing.T) {
	// The classical result: the SMT of a unit square has length 1+√3
	// (two Steiner points on the axis of symmetry), vs MST = 3.
	sq := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	got := ReferenceLength(sq)
	want := 1 + math.Sqrt(3)
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("unit square SMT = %v, want %v", got, want)
	}
}

func TestReferenceLengthBounds(t *testing.T) {
	// Always ≤ MST, and never below the (conjectured) Steiner ratio √3/2
	// of the MST.
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 500; trial++ {
		pts := make([]geom.Point, 4)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*1000, r.Float64()*1000)
		}
		ref := ReferenceLength(pts)
		mst := MSTLength(pts)
		if ref > mst+1e-9 {
			t.Fatalf("reference %v above MST %v for %v", ref, mst, pts)
		}
		if ref < mst*math.Sqrt(3)/2-1e-9 {
			t.Fatalf("reference %v below Steiner ratio bound of MST %v", ref, mst)
		}
	}
}

func TestReferenceLengthCollinear(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(20, 0), geom.Pt(30, 0)}
	got := ReferenceLength(pts)
	if math.Abs(got-30) > 1e-9 {
		t.Fatalf("collinear SMT = %v, want 30", got)
	}
}

func TestReferenceLengthFallbackToMST(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	pts := make([]geom.Point, 7)
	for i := range pts {
		pts[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
	}
	if got, want := ReferenceLength(pts), MSTLength(pts); math.Abs(got-want) > 1e-12 {
		t.Fatalf("n>4 fallback = %v, want MST %v", got, want)
	}
}

func TestRRSTRQualityAgainstReference(t *testing.T) {
	// At 4 terminals (source + 3 destinations) rrSTR must stay within a
	// modest band of the near-optimal reference, and the reference must
	// never exceed the rrSTR tree (it is at least as good a construction).
	r := rand.New(rand.NewSource(79))
	var rrSum, refSum float64
	for trial := 0; trial < 300; trial++ {
		src := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		dests := randDests(r, 3, 1000)
		pts := []geom.Point{src, dests[0].Pos, dests[1].Pos, dests[2].Pos}
		ref := ReferenceLength(pts)
		rr := new(Builder).Build(src, dests, Options{}).TotalLength()
		if ref > rr+1e-6 {
			t.Fatalf("reference %v above rrSTR %v", ref, rr)
		}
		rrSum += rr
		refSum += ref
	}
	if rrSum > refSum*1.1 {
		t.Fatalf("rrSTR mean %v more than 10%% above the near-optimal reference %v",
			rrSum/300, refSum/300)
	}
}
