package routing

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/view"
)

// refSelector is the reference for GMP's group next-hop selection: the rule
// of paper Figure 7 step 4 evaluated in full, with a distance memo that
// NaN-fills every row up front. The production selector (groupNextHop over
// distMemo) must pick the same neighbor on every call.
type refSelector struct {
	memo   refDistMemo
	colBuf []int
}

// refDistMemo is distMemo without lazy rows: begin fills the whole
// (1 + degree) × K matrix with NaN.
type refDistMemo struct {
	col  map[int]int
	locs []geom.Point
	mat  [][]float64
}

func (m *refDistMemo) begin(rows int, dests []int, locs []geom.Point) {
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
	}
	m.mat = m.mat[:rows]
	cols := len(dests)
	for i := range m.mat {
		if cap(m.mat[i]) < cols {
			m.mat[i] = make([]float64, cols)
		}
		m.mat[i] = m.mat[i][:cols]
		for j := range m.mat[i] {
			m.mat[i][j] = math.NaN()
		}
	}
}

func (m *refDistMemo) sumRow(row int, from geom.Point, cols []int) float64 {
	r := m.mat[row]
	var total float64
	for _, c := range cols {
		d := r[c]
		if math.IsNaN(d) {
			d = from.Dist(m.locs[c])
			r[c] = d
		}
		total += d
	}
	return total
}

// terms returns the number of distance terms computed since begin.
func (m *refDistMemo) terms() int {
	n := 0
	for _, r := range m.mat {
		for _, d := range r {
			if !math.IsNaN(d) {
				n++
			}
		}
	}
	return n
}

// begin primes the reference memo for a decision at v on pkt, as
// forwardGroups primes the arena's.
func (s *refSelector) begin(v view.NodeView, pkt *sim.Packet) {
	s.memo.begin(v.Degree()+1, pkt.Dests, pkt.Locs)
}

func (s *refSelector) cols(group []int) []int {
	s.colBuf = s.colBuf[:0]
	for _, id := range group {
		s.colBuf = append(s.colBuf, s.memo.col[id])
	}
	return s.colBuf
}

// groupNextHop sums every neighbor's Σ-distance in full, then compares its
// pivot distance with the best so far.
func (s *refSelector) groupNextHop(v view.NodeView, pivot geom.Point, group []int) int {
	cols := s.cols(group)
	curTotal := s.memo.sumRow(0, v.Pos(), cols)
	best, bestD := -1, math.Inf(1)
	for i, n := range v.Neighbors() {
		np := v.NbrPos(n)
		if s.memo.sumRow(i+1, np, cols) >= curTotal {
			continue
		}
		if d := np.Dist(pivot); d < bestD {
			best, bestD = n, d
		}
	}
	return best
}

// ties reports whether the call has a neighbor whose Σ-distance equals the
// current node's exactly, and whether two qualifying neighbors share the
// winning pivot distance — the cases where evaluation order could matter.
func (s *refSelector) ties(v view.NodeView, pivot geom.Point, group []int) (sumTie, pivotTie bool) {
	cols := s.cols(group)
	curTotal := s.memo.sumRow(0, v.Pos(), cols)
	bestD, atBest := math.Inf(1), 0
	for i, n := range v.Neighbors() {
		np := v.NbrPos(n)
		sum := s.memo.sumRow(i+1, np, cols)
		if sum == curTotal {
			sumTie = true
		}
		if sum >= curTotal {
			continue
		}
		switch d := np.Dist(pivot); {
		case d < bestD:
			bestD, atBest = d, 1
		case d == bestD:
			atBest++
		}
	}
	return sumTie, atBest > 1
}

// nextHopDiff replays decisions twice: once with the grouping walk driven by
// the reference selector, checking on every call that groupNextHop — on the
// same inputs and with its memo in the state the walk leaves it — picks the
// same neighbor; and once through the production path on a reused arena.
// The two forward lists must deep-equal.
type nextHopDiff struct {
	t        *testing.T
	walk     *arena // reference walk; its memo runs the production selector
	plain    *arena // production decisions
	ref      refSelector
	d        arenaDecision
	i        int
	calls    int
	sumTies  int
	pivTies  int
	noChoice int
}

func newNextHopDiff(t *testing.T) *nextHopDiff {
	x := &nextHopDiff{t: t, walk: new(arena), plain: new(arena)}
	x.walk.testNextHop = func(v view.NodeView, pivot geom.Point, group []int) int {
		want := x.ref.groupNextHop(v, pivot, group)
		if got := x.walk.groupNextHop(v, pivot, group); got != want {
			x.t.Fatalf("decision %d (%s at node %d, %d dests), call %d: next hop %d, reference %d (pivot %v, group %v)",
				x.i, x.d.g.Name(), v.Self(), len(x.d.pkt.Dests), x.calls, got, want, pivot, group)
		}
		x.calls++
		if want == -1 {
			x.noChoice++
		}
		sumTie, pivTie := x.ref.ties(v, pivot, group)
		if sumTie {
			x.sumTies++
		}
		if pivTie {
			x.pivTies++
		}
		return want
	}
	return x
}

func (x *nextHopDiff) replay(stream []arenaDecision) {
	for i, d := range stream {
		x.i, x.d = i, d
		x.ref.begin(d.v, d.pkt)
		want := d.g.decide(x.walk, d.v, d.pkt)
		if got := d.g.decide(x.plain, d.v, d.pkt); !reflect.DeepEqual(got, want) {
			x.t.Fatalf("decision %d (%s at node %d, %d dests, perimeter=%v): forwards diverge from the reference walk:\n%s\nvs\n%s",
				i, d.g.Name(), d.v.Self(), len(d.pkt.Dests), d.pkt.Perimeter, forwardsString(got), forwardsString(want))
		}
	}
}

// simPaperKs is the paper's K sweep as the sim-paper benchmark runs it.
var simPaperKs = []int{3, 5, 8, 12, 16, 20, 25}

// simPaperCorpus records GMP-variant decisions on the Table-1 field: 1000
// nodes uniform on 1000 m × 1000 m, r = 150 m, and for every variant the
// given number of whole tasks at each K of the paper's sweep.
func simPaperCorpus(tb testing.TB, seed int64, variants []*GMP, tasks int) []arenaDecision {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	nw, err := network.New(network.DeployUniform(1000, 1000, 1000, r), 1000, 1000, 150)
	if err != nil {
		tb.Fatal(err)
	}
	views := view.NewOracle(nw, planar.Planarize(nw, planar.Gabriel))
	var stream []arenaDecision
	for rep := 0; rep < tasks; rep++ {
		stream = append(stream, recordDecisions(r, nw, views, variants, simPaperKs, 1000, false)...)
	}
	return stream
}

// TestGroupNextHopMatchesReference is the differential oracle for the
// ordered next-hop selection (pivot distance first, early-exit Σ-distance
// sums, lazy memo rows, squared-distance pre-test). Every selector call
// must return the reference's neighbor and every decision must deep-equal
// the reference walk's, on three corpora: the recorded walks of
// TestArenaReuseMatchesFreshArena (voids, perimeter mode, masked views,
// K up to 120), the Table-1 field over the paper's K sweep, and a lattice
// whose symmetry forces exact ties in pivot distance and in Σ-distance.
func TestGroupNextHopMatchesReference(t *testing.T) {
	t.Run("arena-reuse", func(t *testing.T) {
		x := newNextHopDiff(t)
		x.replay(arenaReuseCorpus(t, rand.New(rand.NewSource(17))))
		if x.noChoice == 0 {
			t.Fatalf("%d calls and none without a qualifying neighbor", x.calls)
		}
	})
	t.Run("sim-paper", func(t *testing.T) {
		x := newNextHopDiff(t)
		x.replay(simPaperCorpus(t, 3, gmpVariants(), 10))
		if x.calls < 5000 {
			t.Fatalf("only %d selector calls", x.calls)
		}
	})
	t.Run("lattice", func(t *testing.T) {
		// 25 × 25 nodes 40 m apart with r = 100 m: an interior node sees
		// the same 20 lattice offsets, so neighbors equidistant from a pivot
		// and neighbors mirroring the node's Σ-distance abound.
		nw, err := network.New(network.DeployGrid(25, 25, 40), 1000, 1000, 100)
		if err != nil {
			t.Fatal(err)
		}
		views := view.NewOracle(nw, planar.Planarize(nw, planar.Gabriel))
		r := rand.New(rand.NewSource(11))
		x := newNextHopDiff(t)
		for rep := 0; rep < 4; rep++ {
			x.replay(recordDecisions(r, nw, views, gmpVariants(), []int{1, 2, 3, 5, 8, 12, 25}, 120, true))
		}
		if x.sumTies == 0 || x.pivTies == 0 {
			t.Fatalf("lattice forced no ties: %d Σ-distance ties, %d pivot-distance ties in %d calls",
				x.sumTies, x.pivTies, x.calls)
		}
		t.Logf("%d calls: %d with a Σ-distance tie, %d with a pivot-distance tie", x.calls, x.sumTies, x.pivTies)
	})
}

// TestNextHopDistanceTerms gates the work the next-hop selection does: the
// distance terms it memoizes per decision, counted over a fixed Table-1
// corpus for the production selector and for the reference, which sums
// every neighbor in full. The production count must stay below a quarter
// of the reference's.
func TestNextHopDistanceTerms(t *testing.T) {
	stream := simPaperCorpus(t, 5, []*GMP{NewGMP()}, 20)
	var got, want int
	for _, d := range stream {
		a := new(arena)
		d.g.decide(a, d.v, d.pkt)
		got += a.memo.terms()

		var ref refSelector
		ref.begin(d.v, d.pkt)
		b := &arena{testNextHop: ref.groupNextHop}
		d.g.decide(b, d.v, d.pkt)
		want += ref.memo.terms()
	}
	n := float64(len(stream))
	t.Logf("distance terms per decision over %d decisions: %.1f, reference %.1f",
		len(stream), float64(got)/n, float64(want)/n)
	if 4*got > want {
		t.Fatalf("next-hop selection memoized %d distance terms, more than a quarter of the reference's %d", got, want)
	}
}

// terms returns the number of distance terms computed since begin.
func (m *distMemo) terms() int {
	n := 0
	for i, r := range m.mat {
		if !m.live[i] {
			continue
		}
		for _, d := range r {
			if !math.IsNaN(d) {
				n++
			}
		}
	}
	return n
}

// nextHopCall is one recorded groupNextHop call of a decision.
type nextHopCall struct {
	pivot geom.Point
	group []int
}

// recordNextHopCalls returns, per decision of stream, the selector calls
// its grouping walk makes.
func recordNextHopCalls(stream []arenaDecision) [][]nextHopCall {
	calls := make([][]nextHopCall, len(stream))
	for i, d := range stream {
		a := new(arena)
		a.testNextHop = func(v view.NodeView, pivot geom.Point, group []int) int {
			calls[i] = append(calls[i], nextHopCall{pivot, append([]int(nil), group...)})
			return a.groupNextHop(v, pivot, group)
		}
		d.g.decide(a, d.v, d.pkt)
	}
	return calls
}

// BenchmarkGroupNextHop measures the next-hop selections of one GMP
// decision on the Table-1 field — memo priming plus every selector call of
// its grouping walk — cycling through a recorded corpus.
// BenchmarkGroupNextHopReference runs the same calls through the
// reference; the ratio of the two is the selection's speedup.
func BenchmarkGroupNextHop(b *testing.B) {
	stream := simPaperCorpus(b, 5, []*GMP{NewGMP()}, 20)
	calls := recordNextHopCalls(stream)
	a := new(arena)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(stream)
		d := stream[j]
		a.memo.begin(d.v.Degree()+1, d.pkt.Dests, d.pkt.Locs)
		for _, c := range calls[j] {
			a.groupNextHop(d.v, c.pivot, c.group)
		}
	}
}

func BenchmarkGroupNextHopReference(b *testing.B) {
	stream := simPaperCorpus(b, 5, []*GMP{NewGMP()}, 20)
	calls := recordNextHopCalls(stream)
	var ref refSelector
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(stream)
		d := stream[j]
		ref.begin(d.v, d.pkt)
		for _, c := range calls[j] {
			ref.groupNextHop(d.v, c.pivot, c.group)
		}
	}
}

// FuzzGroupNextHop compares groupNextHop with the reference on small
// fuzz-built fields. Positions lie on a 10 m lattice, so coincident nodes,
// pivots on nodes, and exact ties in both pivot distance and Σ-distance
// are common; each input makes several calls on one primed memo, so rows
// filled and sums cut short by earlier calls are reused by later ones.
func FuzzGroupNextHop(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 160)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 2 + next()%40
		nodes := make([]network.Node, n)
		for i := range nodes {
			nodes[i] = network.Node{ID: i, Pos: geom.Pt(float64(next()%21)*10, float64(next()%21)*10)}
		}
		nw, err := network.New(nodes, 200, 200, 20+float64(next()%10)*10)
		if err != nil {
			t.Skip(err)
		}
		v := view.NewOracle(nw, nil).At(next() % n)
		var dests []int
		seen := map[int]bool{v.Self(): true}
		for k := 1 + next()%n; k > 0; k-- {
			if d := next() % n; !seen[d] {
				seen[d] = true
				dests = append(dests, d)
			}
		}
		if len(dests) == 0 {
			t.Skip("no destinations")
		}
		locs := make([]geom.Point, len(dests))
		for i, d := range dests {
			locs[i] = nw.Pos(d)
		}
		pkt := &sim.Packet{Dests: dests, Locs: locs, Anchor: -1}
		a := new(arena)
		a.memo.begin(v.Degree()+1, pkt.Dests, pkt.Locs)
		var ref refSelector
		ref.begin(v, pkt)
		for call := 0; call < 6; call++ {
			mask := next()<<8 | next()
			var group []int
			for i, d := range dests {
				if mask&(1<<(i%16)) != 0 {
					group = append(group, d)
				}
			}
			if len(group) == 0 {
				group = dests[:1]
			}
			// Pivots on the 5 m half-lattice: on nodes, between them, or on
			// destinations.
			pivot := geom.Pt(float64(next()%41)*5, float64(next()%41)*5)
			if got, want := a.groupNextHop(v, pivot, group), ref.groupNextHop(v, pivot, group); got != want {
				t.Fatalf("node %d, pivot %v, group %v: next hop %d, reference %d", v.Self(), pivot, group, got, want)
			}
		}
	})
}
