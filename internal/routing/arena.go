package routing

import (
	"math"
	"sync"

	"gmp/internal/geom"
	"gmp/internal/steiner"
	"gmp/internal/view"
)

// arena is the working memory of one forwarding decision. GMP is stateless,
// so the arena belongs to the decision, not to the node: a decision takes
// one from arenas, passes it explicitly to its helpers, and puts it back
// once the forward list is built. Every buffer is reset before use, so
// reusing or discarding an arena never changes an outcome. Nothing an arena
// backs may outlive the decision that holds it: the pool hands it to the
// next decision, on any goroutine, as soon as it is put back.
type arena struct {
	// builder rebuilds the rrSTR (or ablation MST) tree of every decision
	// into reused vertex/edge/queue storage.
	builder steiner.Builder

	// GMP grouping-walk buffers (see GMP.forwardGroups): the header
	// destination records, the pivot worklist, the current group's labels,
	// the void accumulator, and the per-next-hop label batches.
	destBuf     []steiner.Dest
	worklist    []int
	groupBuf    []int
	voidBuf     []int
	batchNext   []int
	batchLabels [][]int
	// locBuf backs the perimeter-entry centroid computation.
	locBuf []geom.Point

	// memo caches the decision's distance terms for the group next-hop
	// selection; colBuf is its reusable column-index buffer.
	memo   distMemo
	colBuf []int

	// testNextHop, when set, stands in for groupNextHop. Only tests set it,
	// on arenas they make themselves, to run the grouping walk against a
	// reference selector; pooled arenas never carry it.
	testNextHop func(v view.NodeView, pivot geom.Point, group []int) int
}

// arenas is the one pool of decision arenas. Sharded lanes and service
// workers decide concurrently over shared providers; the pool gives each
// running decision its own arena with no per-goroutine plumbing.
var arenas = sync.Pool{New: func() any { return new(arena) }}

// nextHop is groupNextHop, or the stand-in a test installed.
func (a *arena) nextHop(v view.NodeView, pivot geom.Point, group []int) int {
	if a.testNextHop != nil {
		return a.testNextHop(v, pivot, group)
	}
	return a.groupNextHop(v, pivot, group)
}

// distMemo memoizes the point-to-destination distance matrix of one
// forwarding decision: rows are the deciding node (row 0) and its neighbors
// (row i+1 for Neighbors()[i]), columns are the packet's destinations.
//
// GMP's pivot walk re-evaluates overlapping destination groups while
// splitting (§4.1), recomputing Σ-distance terms from scratch each time —
// O(|neighbors|·|dests|) per candidate evaluation. The memo computes each
// (point, destination) distance at most once per decision, and only when a
// sum actually needs it: a row is NaN-filled on its first touch, so the
// rows of neighbors the next-hop selection never sums cost nothing.
//
// Bit-exactness: sumRow always adds the memoized distances in the caller's
// column order, which is the group's destination order — the same order and
// the same float64 values the unmemoized loop used, so sums are
// bit-identical to recomputation. (Never cache the *sums*: incrementally
// updated sums drift from freshly accumulated ones in the low bits.)
type distMemo struct {
	col  map[int]int  // destination ID -> column
	locs []geom.Point // column -> destination location (header copy)
	mat  [][]float64  // [row][column]; NaN = not yet computed
	live []bool       // row -> filled for this decision
}

// begin prepares the memo for one decision with the given row count
// (1 + neighbor count) and the packet's destination IDs/locations. Previous
// decision state is discarded; rows are reset lazily, on first touch.
func (m *distMemo) begin(rows int, dests []int, locs []geom.Point) {
	if m.col == nil {
		m.col = make(map[int]int, len(dests))
	} else {
		clear(m.col)
	}
	for i, d := range dests {
		m.col[d] = i
	}
	m.locs = append(m.locs[:0], locs...)
	if cap(m.mat) < rows {
		m.mat = make([][]float64, rows)
		m.live = make([]bool, rows)
	}
	m.mat = m.mat[:rows]
	m.live = m.live[:rows]
	clear(m.live)
}

// row returns the memo row for the given index, NaN-filling it on its first
// touch in this decision.
func (m *distMemo) row(i int) []float64 {
	if m.live[i] {
		return m.mat[i]
	}
	cols := len(m.locs)
	r := m.mat[i]
	if cap(r) < cols {
		r = make([]float64, cols)
	}
	r = r[:cols]
	for j := range r {
		r[j] = math.NaN()
	}
	m.mat[i], m.live[i] = r, true
	return r
}

// cols translates a destination-ID subset into column indices, appending to
// buf (pass buf[:0] of a reusable slice). IDs not registered by begin are
// a programming error and panic.
func (m *distMemo) cols(ids []int, buf []int) []int {
	for _, id := range ids {
		c, ok := m.col[id]
		if !ok {
			panic("routing: destination not registered with distMemo.begin")
		}
		buf = append(buf, c)
	}
	return buf
}

// sumRow returns Σ over cols of dist(from, destination), memoizing each
// term in the given row. Terms are accumulated in cols order, and the sum
// stops as soon as the partial sum reaches limit, returning that partial
// sum (pass +Inf for the full sum). Every term is non-negative and
// round-to-nearest addition never makes a+b < a for b >= 0, so the partial
// sum never decreases: the result is >= limit exactly when the full sum
// is, and below limit it is the full sum.
func (m *distMemo) sumRow(row int, from geom.Point, cols []int, limit float64) float64 {
	r := m.row(row)
	var total float64
	for _, c := range cols {
		d := r[c]
		if math.IsNaN(d) {
			d = from.Dist(m.locs[c])
			r[c] = d
		}
		if total += d; total >= limit {
			break
		}
	}
	return total
}
