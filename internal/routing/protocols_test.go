package routing

import (
	"math/rand"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/sim"
	"gmp/internal/view"
)

// lineBed builds a chain of nodes 100 m apart.
func lineBed(t *testing.T, n int, maxHops int) *testBed {
	t.Helper()
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(50+float64(i)*100, 50)
	}
	return newBed(t, network.FromPoints(pts), float64(n)*100+100, 100, 150, maxHops)
}

func TestGMPChainDelivery(t *testing.T) {
	bed := lineBed(t, 8, 100)
	gmp := NewGMP()
	m := bed.en.RunTask(gmp, 0, []int{4, 7})
	if m.Failed() {
		t.Fatalf("failed: %+v", m)
	}
	// Chain: one packet serving both destinations. 7 transmissions total.
	if m.Transmissions != 7 {
		t.Fatalf("Transmissions = %d, want 7", m.Transmissions)
	}
	if m.Delivered[4] != 4 || m.Delivered[7] != 7 {
		t.Fatalf("Delivered = %v", m.Delivered)
	}
}

func TestGMPSplitsDivergingDestinations(t *testing.T) {
	// A Y topology: stem to the right, arms up-right and down-right. The
	// source must eventually split into two copies, not sequentially visit.
	pts := []geom.Point{
		geom.Pt(100, 500), // 0 source
		geom.Pt(200, 500), // 1 stem
		geom.Pt(300, 500), // 2 stem
		geom.Pt(400, 580), // 3 upper arm
		geom.Pt(480, 660), // 4 upper arm dest
		geom.Pt(400, 420), // 5 lower arm
		geom.Pt(480, 340), // 6 lower arm dest
	}
	bed := newBed(t, network.FromPoints(pts), 1000, 1000, 150, 100)
	gmp := NewGMP()
	m := bed.en.RunTask(gmp, 0, []int{4, 6})
	if m.Failed() {
		t.Fatalf("failed: %+v", m)
	}
	// Shared stem then split: strictly fewer transmissions than two
	// independent unicasts (3+3... unicast: 0-1-2-3-4 = 4 hops each ⇒ 8).
	grd := NewGRD()
	mu := bed.en.RunTask(grd, 0, []int{4, 6})
	if m.Transmissions >= mu.Transmissions {
		t.Fatalf("GMP %d transmissions, GRD %d — no sharing on the stem",
			m.Transmissions, mu.Transmissions)
	}
}

func TestGMPVoidRecoveryAroundHole(t *testing.T) {
	// Destinations on the far side of a void: greedy grouping hits a local
	// minimum and perimeter mode must carry the packet around.
	r := rand.New(rand.NewSource(131))
	nodes := network.DeployUniformWithVoid(700, 1000, 1000, geom.Pt(500, 500), 190, r)
	bed := newBed(t, nodes, 1000, 1000, 150, 100)
	if !bed.nw.Connected() {
		t.Skip("disconnected deployment")
	}
	src := bed.nw.ClosestNode(geom.Pt(320, 500))
	d1 := bed.nw.ClosestNode(geom.Pt(690, 520))
	d2 := bed.nw.ClosestNode(geom.Pt(690, 480))
	gmp := NewGMP()
	m := bed.en.RunTask(gmp, src, []int{d1, d2})
	if m.Failed() {
		t.Fatalf("GMP failed around the void: %+v", m)
	}
}

func TestGMPGroupsVoidWithOtherDestinations(t *testing.T) {
	// The paper's Figure 10 claim: a destination that is void on its own can
	// ride along with another destination's group instead of entering
	// perimeter mode. Construct: source s, neighbor n pulling toward u; v
	// beyond u such that s has no neighbor closer to v, but the group {u,v}
	// has a valid next hop n.
	pts := []geom.Point{
		geom.Pt(100, 100), // 0 = s
		geom.Pt(210, 140), // 1 = n (neighbor of s, toward u/v)
		geom.Pt(330, 180), // 2 = u (dest)
		geom.Pt(450, 220), // 3 = v (dest, far)
		geom.Pt(90, 240),  // 4 = n1 (decoy neighbor, away from v)
	}
	bed := newBed(t, network.FromPoints(pts), 1000, 1000, 150, 50)
	gmp := NewGMP()
	m := bed.en.RunTask(gmp, 0, []int{2, 3})
	if m.Failed() {
		t.Fatalf("failed: %+v", m)
	}
	// Delivery path s→n→u→v: hops 2 and 3 with no perimeter detour.
	if m.Delivered[2] != 2 || m.Delivered[3] != 3 {
		t.Fatalf("Delivered = %v, want u at 2 and v at 3", m.Delivered)
	}
	if m.Transmissions != 3 {
		t.Fatalf("Transmissions = %d, want 3", m.Transmissions)
	}
}

func TestGMPEscapesConcaveTrapViaPerimeter(t *testing.T) {
	// A C-shaped obstacle traps greedy forwarding in a true local minimum;
	// only perimeter mode can escape. The trace must show perimeter hops
	// and full delivery; LGS must fail outright.
	r := rand.New(rand.NewSource(163))
	center := geom.Pt(500, 500)
	trap := network.CShapedObstacle(center, 180, 360)
	nodes := network.DeployUniformExclude(900, 1000, 1000, trap, r)
	bed := newBed(t, nodes, 1000, 1000, 150, 100)
	src := bed.nw.ClosestNode(center)
	dst := bed.nw.ClosestNode(geom.Pt(940, 500))

	perimeterHops := 0
	bed.en.SetTracer(func(ev sim.TraceEvent) {
		if ev.Perimeter && !ev.Died {
			perimeterHops++
		}
	})
	gmp := NewGMP()
	m := bed.en.RunTask(gmp, src, []int{dst})
	bed.en.SetTracer(nil)
	if m.Failed() {
		t.Fatalf("GMP failed to escape the trap: %+v", m)
	}
	if perimeterHops == 0 {
		t.Fatal("expected perimeter-mode transmissions in the trap")
	}

	lgs := NewLGS()
	if m := bed.en.RunTask(lgs, src, []int{dst}); !m.Failed() {
		t.Fatal("LGS should fail inside the trap")
	}
}

func TestGMPnrUsesAtLeastAsManyHops(t *testing.T) {
	// Radio-range awareness exists to cut redundant hops; statistically
	// GMPnr must not beat GMP on total hops.
	bed := denseBed(t, 137, 1000)
	r := rand.New(rand.NewSource(19))
	gmp := NewGMP()
	nr := NewGMPnr()
	var a, b int
	for trial := 0; trial < 10; trial++ {
		src, dests := pickTask(r, bed.nw.Len(), 15)
		a += bed.en.RunTask(gmp, src, dests).Transmissions
		b += bed.en.RunTask(nr, src, dests).Transmissions
	}
	if a > b {
		t.Fatalf("GMP total %d exceeds GMPnr %d over 10 tasks", a, b)
	}
}

func TestGMPMSTGroupingAblation(t *testing.T) {
	// The A-4 ablation: MST grouping must deliver correctly and trade
	// per-destination hops against total hops relative to rrSTR grouping.
	bed := denseBed(t, 167, 1000)
	r := rand.New(rand.NewSource(37))
	rr := NewGMP()
	mst := NewGMPWithOptions(GMPOptions{MSTGrouping: true}, "GMPmst")
	var rrPD, mstPD float64
	for trial := 0; trial < 10; trial++ {
		src, dests := pickTask(r, bed.nw.Len(), 15)
		a := bed.en.RunTask(rr, src, dests)
		b := bed.en.RunTask(mst, src, dests)
		if a.Failed() || b.Failed() {
			t.Fatalf("trial %d failed: rr=%v mst=%v", trial, a.Failed(), b.Failed())
		}
		rrPD += a.AvgHopsPerDest()
		mstPD += b.AvgHopsPerDest()
	}
	// rrSTR's virtual-point splits must win clearly on per-destination hops
	// (the paper's Figure 12 mechanism).
	if rrPD >= mstPD {
		t.Fatalf("rrSTR per-dest %v not below MST grouping %v", rrPD/10, mstPD/10)
	}
}

func TestGMPSteinerizedGroupingDelivers(t *testing.T) {
	bed := denseBed(t, 173, 800)
	r := rand.New(rand.NewSource(41))
	p := NewGMPWithOptions(GMPOptions{SteinerizedGrouping: true}, "GMPsmst")
	for trial := 0; trial < 5; trial++ {
		src, dests := pickTask(r, bed.nw.Len(), 10)
		m := bed.en.RunTask(p, src, dests)
		if m.InvalidSends != 0 {
			t.Fatal("invalid sends")
		}
		if m.Failed() {
			t.Fatalf("trial %d failed: %d/%d", trial, len(m.Delivered), m.DestCount)
		}
	}
}

func TestLGSFailsOnVoid(t *testing.T) {
	// Source with a single neighbor that is farther from the destination:
	// LGS must drop (no recovery), GMP must still deliver via perimeter.
	pts := []geom.Point{
		geom.Pt(500, 500), // 0 source
		geom.Pt(400, 500), // 1 only neighbor, AWAY from dest
		geom.Pt(300, 500), // 2 relay
		geom.Pt(300, 350), // 3 relay
		geom.Pt(400, 250), // 4 relay
		geom.Pt(550, 230), // 5 relay
		geom.Pt(650, 300), // 6 dest (out of range of 0: dist ~ 250)
	}
	bed := newBed(t, network.FromPoints(pts), 1000, 1000, 160, 100)
	lgs := NewLGS()
	m := bed.en.RunTask(lgs, 0, []int{6})
	if !m.Failed() {
		t.Fatal("LGS should fail at the void")
	}
	if m.Drops() == 0 {
		t.Fatal("LGS should record the drop")
	}
	gmp := NewGMP()
	m = bed.en.RunTask(gmp, 0, []int{6})
	if m.Failed() {
		t.Fatalf("GMP should recover via perimeter: %+v", m)
	}
}

func TestLGSSequentialChainBehaviour(t *testing.T) {
	// Figure 13: destinations roughly on a line make LGS visit them
	// sequentially, inflating per-destination hops relative to GMP.
	bed := denseBed(t, 139, 1000)
	r := rand.New(rand.NewSource(23))
	lgs := NewLGS()
	gmp := NewGMP()
	var lgsPD, gmpPD float64
	count := 0
	for trial := 0; trial < 10; trial++ {
		src, dests := pickTask(r, bed.nw.Len(), 10)
		ml := bed.en.RunTask(lgs, src, dests)
		mg := bed.en.RunTask(gmp, src, dests)
		if ml.Failed() || mg.Failed() {
			continue
		}
		lgsPD += ml.AvgHopsPerDest()
		gmpPD += mg.AvgHopsPerDest()
		count++
	}
	if count == 0 {
		t.Skip("all trials hit voids")
	}
	if lgsPD <= gmpPD {
		t.Fatalf("expected LGS per-dest hops (%v) above GMP (%v)", lgsPD/float64(count), gmpPD/float64(count))
	}
}

func TestLGKFanOutRespected(t *testing.T) {
	bed := denseBed(t, 149, 800)
	r := rand.New(rand.NewSource(29))
	src, dests := pickTask(r, bed.nw.Len(), 9)
	for _, k := range []int{1, 2, 4} {
		lgk := NewLGK(k)
		m := bed.en.RunTask(lgk, src, dests)
		if m.InvalidSends != 0 {
			t.Fatalf("LGK%d invalid sends", k)
		}
	}
	if NewLGK(0).k != 1 {
		t.Fatal("k must clamp to 1")
	}
}

func TestPBMLambdaTradeoff(t *testing.T) {
	// λ=0 optimizes pure progress (more copies, fewer per-dest hops);
	// higher λ merges copies. Over several tasks, λ=0.6 must not use more
	// total transmissions than λ=0 on average... the paper's trend is that
	// larger λ trades per-dest hops for total hops. Assert the weaker,
	// always-true direction: both deliver, and per-dest hops of λ=0 ≤
	// per-dest hops of λ=0.6 on average.
	bed := denseBed(t, 151, 1000)
	r := rand.New(rand.NewSource(31))
	p0 := NewPBM(0)
	p6 := NewPBM(0.6)
	var pd0, pd6 float64
	var tx0, tx6 int
	for trial := 0; trial < 10; trial++ {
		src, dests := pickTask(r, bed.nw.Len(), 12)
		m0 := bed.en.RunTask(p0, src, dests)
		m6 := bed.en.RunTask(p6, src, dests)
		if m0.Failed() || m6.Failed() {
			t.Fatalf("PBM failed on dense network (λ=0: %v, λ=0.6: %v)", m0.Failed(), m6.Failed())
		}
		pd0 += m0.AvgHopsPerDest()
		pd6 += m6.AvgHopsPerDest()
		tx0 += m0.Transmissions
		tx6 += m6.Transmissions
	}
	if pd0 > pd6 {
		t.Fatalf("λ=0 per-dest hops %v above λ=0.6 %v", pd0, pd6)
	}
	if tx6 > tx0 {
		t.Fatalf("λ=0.6 total hops %d above λ=0 %d", tx6, tx0)
	}
}

func TestSMTMatchesKMBTreeSize(t *testing.T) {
	// On an obstacle-free chain, the SMT tree is the chain itself.
	bed := lineBed(t, 6, 100)
	smt := NewSMT(bed.nw)
	m := bed.en.RunTask(smt, 0, []int{5})
	if m.Failed() {
		t.Fatalf("failed: %+v", m)
	}
	if m.Transmissions != 5 {
		t.Fatalf("Transmissions = %d, want 5", m.Transmissions)
	}
}

func TestSMTSkipsUnreachableDestinations(t *testing.T) {
	// An isolated destination cannot be served, but the reachable one must
	// still be delivered.
	pts := []geom.Point{
		geom.Pt(100, 100), geom.Pt(200, 100), geom.Pt(300, 100),
		geom.Pt(900, 900), // isolated
	}
	bed := newBed(t, network.FromPoints(pts), 1000, 1000, 150, 100)
	smt := NewSMT(bed.nw)
	m := bed.en.RunTask(smt, 0, []int{2, 3})
	if !m.Failed() {
		t.Fatal("task with unreachable destination must fail overall")
	}
	if m.Delivered[2] != 2 {
		t.Fatalf("reachable destination not delivered: %v", m.Delivered)
	}
}

func TestSMTAllUnreachable(t *testing.T) {
	pts := []geom.Point{geom.Pt(100, 100), geom.Pt(900, 900)}
	bed := newBed(t, network.FromPoints(pts), 1000, 1000, 150, 100)
	smt := NewSMT(bed.nw)
	m := bed.en.RunTask(smt, 0, []int{1})
	if !m.Failed() || m.Transmissions != 0 {
		t.Fatalf("expected clean failure, got %+v", m)
	}
}

func TestGRDRecoversViaPerimeter(t *testing.T) {
	r := rand.New(rand.NewSource(157))
	nodes := network.DeployUniformWithVoid(700, 1000, 1000, geom.Pt(500, 500), 190, r)
	bed := newBed(t, nodes, 1000, 1000, 150, 100)
	if !bed.nw.Connected() {
		t.Skip("disconnected deployment")
	}
	src := bed.nw.ClosestNode(geom.Pt(320, 500))
	dst := bed.nw.ClosestNode(geom.Pt(690, 500))
	grd := NewGRD()
	m := bed.en.RunTask(grd, src, []int{dst})
	if m.Failed() {
		t.Fatalf("GRD failed around the void: %+v", m)
	}
}

func TestGRDMalformedPacketDropped(t *testing.T) {
	bed := lineBed(t, 4, 100)
	grd := NewGRD()
	// Direct decision call with a malformed multi-destination packet: GRD
	// unicasts carry exactly one destination, so the copy must be dropped.
	v := view.NewOracle(bed.nw, bed.pg).At(0)
	pkt := &sim.Packet{
		Dests: []int{1, 2},
		Locs:  []geom.Point{bed.nw.Pos(1), bed.nw.Pos(2)},
	}
	fwds := grd.Decide(v, pkt)
	if len(fwds) != 1 || fwds[0].To != sim.DropCopy {
		t.Fatalf("malformed packet must yield one drop, got %+v", fwds)
	}
}
