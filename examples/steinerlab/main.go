// Steinerlab: a pure-geometry tour of the library's tree builders — the
// paper's rrSTR (basic and radio-aware) against the Euclidean MST, the
// corner-Steinerized MST, and the near-optimal 4-terminal reference.
// Useful for building intuition about why GMP routes the way it does.
package main

import (
	"fmt"
	"math/rand"

	"gmp"
	"gmp/internal/geom"
	"gmp/internal/steiner"
)

func main() {
	// The paper's Figure 1/4 shape: a far cluster {u, v}, a mid destination
	// d, and a near-chain destination c.
	src := gmp.Pt(100, 100)
	figure := []steiner.Dest{
		{Pos: gmp.Pt(820, 620), Label: 0}, // u
		{Pos: gmp.Pt(870, 560), Label: 1}, // v
		{Pos: gmp.Pt(760, 420), Label: 2}, // d
		{Pos: gmp.Pt(420, 300), Label: 3}, // c
	}
	fmt.Println("Paper-style instance (source + 4 destinations):")
	compare(src, figure)

	// Random scatter at the evaluation's k=12.
	r := rand.New(rand.NewSource(4))
	var scatter []steiner.Dest
	for i := 0; i < 12; i++ {
		scatter = append(scatter, steiner.Dest{
			Pos:   gmp.Pt(r.Float64()*1000, r.Float64()*1000),
			Label: i,
		})
	}
	fmt.Println("\nUniform scatter, k=12:")
	compare(gmp.Pt(500, 500), scatter)

	// The 4-terminal case has a near-optimal reference to calibrate against.
	small := figure[:3]
	pts := []geom.Point{src}
	for _, d := range small {
		pts = append(pts, d.Pos)
	}
	var b steiner.Builder
	rrLen := b.Build(src, small, steiner.Options{}).TotalLength()
	mstLen := b.EuclideanMST(src, small).TotalLength()
	fmt.Printf("\n4-terminal reference length: %.1f m (rrSTR %.1f, MST %.1f)\n",
		steiner.ReferenceLength(pts), rrLen, mstLen)

	// Print the radio-aware rrSTR tree for the paper-style instance.
	tree := b.Build(src, figure, steiner.Options{RadioRange: 150, RadioAware: true})
	fmt.Printf("\nradio-aware rrSTR tree:\n%s", tree)
}

// compare prints each builder's tree as soon as it is built: one Builder
// serves all four, and each build reuses the previous tree's storage.
func compare(src gmp.Point, dests []steiner.Dest) {
	var b steiner.Builder
	t := b.Build(src, dests, steiner.Options{})
	fmt.Printf("  rrSTR (basic):      %7.1f m, %d pivots\n", t.TotalLength(), len(t.Pivots()))
	t = b.Build(src, dests, steiner.Options{RadioRange: 150, RadioAware: true})
	fmt.Printf("  rrSTR (radio-aware):%7.1f m, %d pivots\n", t.TotalLength(), len(t.Pivots()))
	t = b.EuclideanMST(src, dests)
	fmt.Printf("  Euclidean MST:      %7.1f m, %d pivots\n", t.TotalLength(), len(t.Pivots()))
	t = b.SteinerizedMST(src, dests)
	fmt.Printf("  Steinerized MST:    %7.1f m, %d pivots\n", t.TotalLength(), len(t.Pivots()))
}
