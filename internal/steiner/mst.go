package steiner

import (
	"math"

	"gmp/internal/geom"
)

// MSTLength returns the total Euclidean length of the minimum spanning tree
// over pts. It is the classical 2-approximation reference used in tests to
// sanity-check rrSTR tree lengths.
func MSTLength(pts []geom.Point) float64 {
	n := len(pts)
	if n < 2 {
		return 0
	}
	inTree := make([]bool, n)
	best := make([]float64, n)
	for i := range best {
		best[i] = math.Inf(1)
	}
	inTree[0] = true
	for i := 1; i < n; i++ {
		best[i] = pts[0].Dist(pts[i])
	}
	var total float64
	for added := 1; added < n; added++ {
		pick := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (pick == -1 || best[i] < best[pick]) {
				pick = i
			}
		}
		total += best[pick]
		inTree[pick] = true
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := pts[pick].Dist(pts[i]); d < best[i] {
					best[i] = d
				}
			}
		}
	}
	return total
}
