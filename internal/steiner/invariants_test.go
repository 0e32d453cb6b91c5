package steiner

import (
	"math/rand"
	"testing"

	"gmp/internal/geom"
)

// TestRadioAwareBeneficialVirtuals checks the §3.3 core guarantee on built
// trees: every virtual vertex that is a direct child of the source with two
// leaf children (the canonical "pair join") must actually pay for itself —
// one radio-range hop to the join plus the two legs must undercut direct
// delivery.
func TestRadioAwareBeneficialVirtuals(t *testing.T) {
	const rr = 150.0
	r := rand.New(rand.NewSource(103))
	for trial := 0; trial < 200; trial++ {
		src := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		dests := randDests(r, 2+r.Intn(12), 1000)
		tree := new(Builder).Build(src, dests, Options{RadioRange: rr, RadioAware: true})
		for _, p := range tree.Pivots() {
			v := tree.Vertex(p)
			if v.Kind != Virtual {
				continue
			}
			kids := tree.Children(p, 0)
			if len(kids) != 2 {
				continue
			}
			a, b := tree.Vertex(kids[0]), tree.Vertex(kids[1])
			if a.Kind != Terminal || b.Kind != Terminal {
				continue
			}
			via := rr + v.Pos.Dist(a.Pos) + v.Pos.Dist(b.Pos)
			direct := src.Dist(a.Pos) + src.Dist(b.Pos)
			if via >= direct {
				t.Fatalf("trial %d: non-beneficial virtual survived: via=%v direct=%v\n%s",
					trial, via, direct, tree)
			}
		}
	}
}

// TestRadioAwareNoPairBothInRangeJoined checks §3.3 case 1: two terminals
// both within radio range of the source must never share a virtual parent.
func TestRadioAwareNoPairBothInRangeJoined(t *testing.T) {
	const rr = 150.0
	r := rand.New(rand.NewSource(107))
	for trial := 0; trial < 200; trial++ {
		src := geom.Pt(500, 500)
		// Mix of in-range and far destinations.
		var dests []Dest
		for i := 0; i < 3; i++ {
			a := r.Float64() * 2 * 3.14159
			d := r.Float64() * rr * 0.95
			dests = append(dests, Dest{
				Pos:   geom.Pt(500+d*cos(a), 500+d*sin(a)),
				Label: len(dests),
			})
		}
		for i := 0; i < 5; i++ {
			dests = append(dests, Dest{
				Pos:   geom.Pt(r.Float64()*1000, r.Float64()*1000),
				Label: len(dests),
			})
		}
		tree := new(Builder).Build(src, dests, Options{RadioRange: rr, RadioAware: true})
		for _, v := range tree.Vertices() {
			if v.Kind != Virtual {
				continue
			}
			var termKids []Vertex
			for _, c := range tree.Neighbors(v.ID) {
				cv := tree.Vertex(c)
				if cv.Kind == Terminal {
					termKids = append(termKids, cv)
				}
			}
			for i := 0; i < len(termKids); i++ {
				for j := i + 1; j < len(termKids); j++ {
					if src.Dist(termKids[i].Pos) < rr && src.Dist(termKids[j].Pos) < rr {
						t.Fatalf("trial %d: in-range pair (%v, %v) joined at virtual %v",
							trial, termKids[i].Pos, termKids[j].Pos, v.Pos)
					}
				}
			}
		}
	}
}

func cos(a float64) float64 { return geom.Pt(1, 0).Rotate(a).X }
func sin(a float64) float64 { return geom.Pt(1, 0).Rotate(a).Y }

// TestProseVariantAlsoValid sweeps random instances through the §3.3 prose
// variant, checking structural validity and the star upper bound.
func TestProseVariantAlsoValid(t *testing.T) {
	r := rand.New(rand.NewSource(109))
	for trial := 0; trial < 100; trial++ {
		src := geom.Pt(r.Float64()*1000, r.Float64()*1000)
		dests := randDests(r, 1+r.Intn(15), 1000)
		tree := new(Builder).Build(src, dests, Options{RadioRange: 150, RadioAware: true, OneInRangeProse: true})
		if err := tree.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var star float64
		for _, d := range dests {
			star += src.Dist(d.Pos)
		}
		if got := tree.TotalLength(); got > star+1e-6 {
			t.Fatalf("trial %d: prose variant length %v above star %v", trial, got, star)
		}
	}
}
