package steiner

import (
	"gmp/internal/geom"
)

// Dest is a multicast destination handed to a tree builder: a position plus
// the caller's identifier (for example a network node ID).
type Dest struct {
	Pos   geom.Point
	Label int
}

// Options configures the rrSTR construction (paper Figure 3 and §3.3).
type Options struct {
	// RadioRange is the transmission radius of the current node, used by the
	// radio-range-aware special cases. It must be positive when RadioAware
	// is set.
	RadioRange float64
	// RadioAware enables the §3.3 special cases that suppress virtual
	// destinations which would only add hops. Disabling it yields GMPnr,
	// the paper's ablation variant.
	RadioAware bool
	// OneInRangeProse selects the §3.3 prose behaviour for the
	// "only one endpoint within radio range and the virtual point is not
	// beneficial" case: attach both destinations directly to the source.
	// The default (false) follows the normative Figure 3 pseudocode, which
	// deactivates the pair instead. Kept as an option for the A-1 ablation.
	OneInRangeProse bool
}

// pairItem is a candidate destination pair in the reduction-ratio queue.
type pairItem struct {
	u, v int // vertex IDs, u < v
	rr   float64
	t    geom.Point // Steiner point of {source, u, v}
}

// pairQueue is a max-heap of pairItems keyed by reduction ratio with a
// deterministic vertex-ID tie-break. It is hand-rolled rather than built on
// container/heap: the standard heap boxes every element into an interface{},
// one allocation per push, which the per-decision rrSTR rebuild cannot
// afford. The ordering is a strict total order (no two items compare equal),
// so every pop returns the unique maximum and the construction sequence is
// identical to the container/heap version.
type pairQueue []pairItem

// before reports whether item i has priority over item j.
func (q pairQueue) before(i, j int) bool {
	if q[i].rr != q[j].rr {
		return q[i].rr > q[j].rr
	}
	if q[i].u != q[j].u {
		return q[i].u < q[j].u
	}
	return q[i].v < q[j].v
}

// init heapifies the queue in place.
func (q pairQueue) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q *pairQueue) push(it pairItem) {
	*q = append(*q, it)
	q.up(len(*q) - 1)
}

func (q *pairQueue) pop() pairItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	it := h[n]
	*q = h[:n]
	(*q).down(0)
	return it
}

func (q pairQueue) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !q.before(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (q pairQueue) down(i int) {
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		j := l
		if r := l + 1; r < n && q.before(r, l) {
			j = r
		}
		if !q.before(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}
