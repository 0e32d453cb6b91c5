package serve

// The differential oracle for the ROUTE walk: refWalkRoute is the walker as
// it stood before the walk moved onto the simulation kernel's hop-ordered
// policy, with its own breadth-first queue, billing closure and copy rules.
// It allocates freely (no packet recycling). TestWalkMatchesReference and
// FuzzRouteWalk require the kernel-backed walk to reproduce its HOP stream
// byte for byte and its ROUTE_DONE summary exactly.

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gmp/internal/geom"
	"gmp/internal/sim"
	"gmp/internal/wire"
)

// walkFunc is the shape shared by walkRoute and refWalkRoute.
type walkFunc func(protoName string, rb wire.RouteBody, emit func(hb wire.HopBody) bool) (*wire.RouteDoneBody, error)

// walkRecord is everything one walk shows the outside: its HOP stream
// (copied out of the walker's arena) and its answer.
type walkRecord struct {
	hops []wire.HopBody
	done *wire.RouteDoneBody
	err  error
}

// recordWalk runs one walk. With listen false it runs quiet (nil emit);
// refuseAfter ≥ 0 makes emit refuse from that HOP on. A panicking decision
// is recorded as the walk's error, as the server's worker isolation answers
// it.
func recordWalk(walk walkFunc, proto string, rb wire.RouteBody, listen bool, refuseAfter int) (rec walkRecord) {
	defer func() {
		if r := recover(); r != nil {
			rec.done, rec.err = nil, fmt.Errorf("panic: %v", r)
		}
	}()
	var emit func(hb wire.HopBody) bool
	if listen {
		emit = func(hb wire.HopBody) bool {
			hb.Frame = append([]byte(nil), hb.Frame...)
			rec.hops = append(rec.hops, hb)
			return refuseAfter < 0 || len(rec.hops) <= refuseAfter
		}
	}
	rec.done, rec.err = walk(proto, rb, emit)
	return rec
}

// diffWalks reports how got differs from want: the HOP streams must agree
// in Seq, From, To and frame bytes; the answers must be deep-equal, or the
// same error.
func diffWalks(got, want walkRecord) error {
	n := min(len(got.hops), len(want.hops))
	for i := 0; i < n; i++ {
		g, w := got.hops[i], want.hops[i]
		if g.Seq != w.Seq || g.From != w.From || g.To != w.To || !bytes.Equal(g.Frame, w.Frame) {
			return fmt.Errorf("HOP %d: got seq %d %d>%d, want seq %d %d>%d (frames equal: %t)",
				i, g.Seq, g.From, g.To, w.Seq, w.From, w.To, bytes.Equal(g.Frame, w.Frame))
		}
	}
	if len(got.hops) != len(want.hops) {
		return fmt.Errorf("HOP stream has %d messages, want %d", len(got.hops), len(want.hops))
	}
	if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
		return fmt.Errorf("error %v, want %v", got.err, want.err)
	}
	if !reflect.DeepEqual(got.done, want.done) {
		return fmt.Errorf("ROUTE_DONE %+v, want %+v", got.done, want.done)
	}
	return nil
}

// walkPair is a kernel-backed decider and a reference decider configured
// alike, each with its own memo cache when caching is on, so both see the
// same hit pattern.
type walkPair struct{ got, ref *decider }

func newWalkPair(dep *Deployment, cached bool, maxSteps int) walkPair {
	var p walkPair
	for _, d := range []**decider{&p.got, &p.ref} {
		*d = newDecider(dep, 0.5, 0)
		(*d).routeMaxSteps = maxSteps
		if cached {
			(*d).cache = newDecisionCache(0)
		}
	}
	return p
}

// check walks rb on both deciders, in loud and quiet mode, and returns the
// loud walk and the first difference.
func (p walkPair) check(proto string, rb wire.RouteBody, refuseAfter int) (walkRecord, error) {
	var loud walkRecord
	for _, listen := range []bool{true, false} {
		got := recordWalk(p.got.walkRoute, proto, rb, listen, refuseAfter)
		want := recordWalk(p.ref.refWalkRoute, proto, rb, listen, refuseAfter)
		if err := diffWalks(got, want); err != nil {
			return got, fmt.Errorf("listen=%t: %w", listen, err)
		}
		if listen {
			loud = got
		}
	}
	return loud, nil
}

// encodeRoute builds a ROUTE start frame from src to the given destination
// locations, with the given hop count.
func encodeRoute(t testing.TB, dep *Deployment, src int, dests []geom.Point, hops byte, budget uint16) wire.RouteBody {
	t.Helper()
	f := &wire.Frame{Source: dep.NW.Pos(src), Hops: hops, Dests: dests, Payload: []byte("gmp")}
	f.NextHop = f.Source
	data, err := wire.Encode(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	return wire.RouteBody{Frame: data, Budget: budget}
}

// TestWalkMatchesReference is the differential oracle for the walk's move
// onto the kernel: for every servable protocol (MCFR included), memo cache
// on and off, budgets unlimited, 100 and 4, and groups of 1, 12 and 120
// destinations, the kernel-backed walk must reproduce the reference
// walker's HOP stream and ROUTE_DONE exactly. Extra arms cover a group
// containing the source, a nonzero start hop count, a stream refused
// midway, and a step ceiling small enough to overrun.
func TestWalkMatchesReference(t *testing.T) {
	dep := testDeployment(t)
	nw := dep.NW
	randomLocs := func(rng *rand.Rand, k int) []geom.Point {
		locs := make([]geom.Point, k)
		for i := range locs {
			locs[i] = geom.Pt(rng.Float64()*nw.Width(), rng.Float64()*nw.Height())
		}
		return locs
	}
	for _, proto := range servableProtocols() {
		t.Run(proto, func(t *testing.T) {
			var overruns, budgetKills, delivered int
			for _, cached := range []bool{false, true} {
				pair := newWalkPair(dep, cached, 0)
				overrun := newWalkPair(dep, cached, 3)
				for _, k := range []int{1, 12, 120} {
					for _, budget := range []uint16{0, 100, 4} {
						for seed := int64(1); seed <= 2; seed++ {
							rng := rand.New(rand.NewSource(seed*1000 + int64(k)))
							src := rng.Intn(nw.Len())
							// K=120 exceeds the fixture's free nodes, so it
							// draws field locations: co-located subscribers
							// merge, and some resolve to the source.
							dests := randomLocs(rng, k)
							if k < 120 {
								_, ids := pickNodes(rng, nw.Len(), k)
								for i, id := range ids {
									dests[i] = nw.Pos(id)
								}
							}
							withSrc := append([]geom.Point{nw.Pos(src)}, dests...)
							arms := []struct {
								name        string
								p           walkPair
								rb          wire.RouteBody
								refuseAfter int
							}{
								{"plain", pair, encodeRoute(t, dep, src, dests, 0, budget), -1},
								{"with-source", pair, encodeRoute(t, dep, src, withSrc, 0, budget), -1},
								{"start-hops", pair, encodeRoute(t, dep, src, dests, 7, budget), -1},
								{"refused", pair, encodeRoute(t, dep, src, dests, 0, budget), 2},
								{"overrun", overrun, encodeRoute(t, dep, src, dests, 0, budget), -1},
							}
							for _, a := range arms {
								rec, err := a.p.check(proto, a.rb, a.refuseAfter)
								if err != nil {
									t.Fatalf("cached=%t k=%d budget=%d seed=%d %s: %v",
										cached, k, budget, seed, a.name, err)
								}
								if rec.err == ErrWalkOverrun {
									overruns++
								}
								if rec.done == nil {
									continue
								}
								for _, o := range rec.done.Outcomes {
									switch o.Status {
									case wire.RouteDropHopBudget:
										budgetKills++
									case wire.RouteDelivered:
										delivered++
									}
								}
							}
						}
					}
				}
			}
			// The arms must reach the rules they are meant to cover.
			if overruns == 0 || budgetKills == 0 || delivered == 0 {
				t.Fatalf("coverage: %d overruns, %d hop-budget kills, %d deliveries",
					overruns, budgetKills, delivered)
			}
		})
	}
}

// FuzzRouteWalk holds the kernel-backed walk to the reference on arbitrary
// ROUTE requests over the test deployment: the bytes pick the protocol,
// cache mode, source, budget, start hop count and destination nodes.
func FuzzRouteWalk(f *testing.F) {
	f.Add([]byte{0, 0, 17, 0, 0, 3, 40, 90})
	f.Add([]byte{8, 1, 5, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 0, 99, 100, 7, 99, 33, 12})
	f.Add([]byte{6, 1, 60, 2, 255, 61, 62, 63, 64, 65})
	dep := testDeployment(f)
	protos := servableProtocols()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		nw := dep.NW
		proto := protos[int(data[0])%len(protos)]
		cached := data[1]&1 == 1
		src := int(data[2]) % nw.Len()
		budget := uint16(data[3] % 32)
		hops := data[4]
		var dests []geom.Point
		for _, b := range data[5:min(len(data), 5+128)] {
			dests = append(dests, nw.Pos(int(b)%nw.Len()))
		}
		// A small step ceiling keeps looping walks (budget 0 is unlimited)
		// fast; overruns are compared like any other answer.
		pair := newWalkPair(dep, cached, 512)
		rb := encodeRoute(t, dep, src, dests, hops, budget)
		if _, err := pair.check(proto, rb, -1); err != nil {
			t.Fatalf("%s cached=%t src=%d budget=%d hops=%d dests=%d: %v",
				proto, cached, src, budget, hops, len(dests), err)
		}
	})
}

// refWalkItem is one in-flight packet copy waiting to arrive at node.
type refWalkItem struct {
	node int
	pkt  *sim.Packet
}

// refWalkRoute answers one ROUTE request the way the pre-kernel walker did.
func (d *decider) refWalkRoute(protoName string, rb wire.RouteBody, emit func(hb wire.HopBody) bool) (*wire.RouteDoneBody, error) {
	p, err := d.protocol(protoName)
	if err != nil {
		return nil, err
	}
	if err := wire.DecodeInto(&d.frame, rb.Frame); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	f := &d.frame
	nw := d.dep.NW

	// Resolve the full wanted set first — the summary reports every
	// resolved destination, including those co-located with the source.
	if d.seen == nil {
		d.seen = make(map[int]bool, 64)
	}
	clear(d.seen)
	want := make([]int, 0, len(f.Dests))
	for _, loc := range f.Dests {
		id := nw.ClosestNode(loc)
		if d.seen[id] {
			continue // co-located subscribers merge (§2)
		}
		d.seen[id] = true
		want = append(want, id)
	}
	sort.Ints(want)

	// frameToPacket re-resolves under the engine's Start shape rules:
	// no anchor, no PERIMODE, sorted destinations, restamped locations,
	// source-co-located destinations stripped (delivered at hop 0).
	src, pkt, err := d.frameToPacket(wire.OpStart, f)
	if err != nil {
		return nil, err
	}

	budget := int(rb.Budget)
	if budget == 0 {
		budget = d.routeBudget
	}
	maxSteps := d.routeMaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultRouteMaxSteps
	}

	delivered := make(map[int]uint16, len(want))
	pending := make(map[int]byte) // first drop reason wins; settled at the end
	for _, id := range want {
		if id == src {
			delivered[id] = 0
		}
	}

	done := &wire.RouteDoneBody{}
	var seq uint32
	// bill defers a copy kill's per-destination charge into the pending
	// map, exactly like the engine's redundant-session settlement: a later
	// copy may still deliver, so delivered destinations shed their pending
	// reason when the walk settles.
	bill := func(dests []int, r sim.DropReason) {
		status := reasonStatus(r)
		for _, id := range dests {
			if _, seen := pending[id]; !seen {
				pending[id] = status
			}
		}
	}
	// event streams one copy event; a refused emit stops the stream but
	// never the walk.
	event := func(from, to int, hops int, r *fwdRec) error {
		if emit == nil {
			return nil
		}
		hb := byte(255)
		if hops < 255 {
			hb = byte(hops)
		}
		arena := d.arena[:0]
		arena, err := d.appendForwardFrame(arena, f.Source, f.Payload, hb, from, r)
		d.arena = arena
		if err != nil {
			return err
		}
		if !emit(wire.HopBody{Seq: seq, From: int32(from), To: int32(to), Frame: arena}) {
			emit = nil
		}
		seq++
		return nil
	}

	var queue []refWalkItem
	head := 0
	// step runs one decision at node on pkt and applies its forwards under
	// the kernel's apply/send rules: explicit drop sentinels kill with their
	// reasons; transmissions are range-checked, hop-bumped, budget-checked,
	// then enqueued as fresh copies.
	step := func(op byte, node int, pkt *sim.Packet) error {
		if int(done.Decisions) >= maxSteps {
			return ErrWalkOverrun
		}
		recs, hit := d.run(p, protoName, op, d.views.At(node), pkt)
		done.Decisions++
		if hit {
			done.CacheHits++
		}
		if len(recs) == 0 {
			bill(pkt.Dests, sim.ReasonStranded)
			return nil
		}
		for i := range recs {
			r := &recs[i]
			switch r.To {
			case sim.DropCopy:
				// Per-hop replies encode drop frames with the bumped hop
				// count (recsToReplies bumps once for the whole list); the
				// stream matches byte for byte.
				bill(r.Dests, sim.ReasonProtocol)
				if err := event(node, sim.DropCopy, pkt.Hops+1, r); err != nil {
					return err
				}
			case sim.DropWatchdog:
				bill(r.Dests, sim.ReasonWatchdog)
				if err := event(node, sim.DropWatchdog, pkt.Hops+1, r); err != nil {
					return err
				}
			default:
				if !sim.ValidHop(nw, node, r.To) {
					bill(r.Dests, sim.ReasonInvalidSend)
					continue // no transmission, like the kernel's send
				}
				hops := pkt.Hops + 1
				if budget > 0 && hops > budget {
					bill(r.Dests, sim.ReasonHopBudget)
					continue // killed before the air, like the engine
				}
				if err := event(node, r.To, hops, r); err != nil {
					return err
				}
				done.Hops++
				q := &sim.Packet{}
				q.Dests = append(q.Dests, r.Dests...)
				q.Locs = append(q.Locs, r.Locs...)
				q.Hops = hops
				q.Perimeter = r.Perimeter
				if r.Perimeter {
					q.Peri = r.Peri
				}
				q.Anchor = r.Anchor
				queue = append(queue, refWalkItem{node: r.To, pkt: q})
			}
		}
		return nil
	}

	if pkt != nil { // nil: every destination resolved to the source
		if err := step(wire.OpStart, src, pkt); err != nil {
			return nil, err
		}
	}
	for head < len(queue) {
		it := queue[head]
		queue[head] = refWalkItem{}
		head++
		// Arrive: strip the destination delivered here (first delivery
		// wins), then decide if work remains — the kernel's arrive.
		q := it.pkt
		if q.Strip(it.node) > 0 {
			if _, dup := delivered[it.node]; !dup {
				delivered[it.node] = uint16(min(q.Hops, 0xFFFF))
			}
		}
		if len(q.Dests) == 0 {
			continue // fully delivered
		}
		if err := step(wire.OpDecide, it.node, q); err != nil {
			return nil, err
		}
	}

	// Settle: delivered wins over any pending drop reason (another copy's
	// death never un-delivers a destination).
	done.Outcomes = make([]wire.DestOutcome, 0, len(want))
	for _, id := range want {
		o := wire.DestOutcome{Node: int32(id), Loc: nw.Pos(id)}
		if h, ok := delivered[id]; ok {
			o.Status, o.Hops = wire.RouteDelivered, h
		} else if status, ok := pending[id]; ok {
			o.Status = status
		} else {
			// Every copy either delivers or is billed when it dies; a
			// destination with neither is a walker conservation bug.
			return nil, fmt.Errorf("%w: destination %d neither delivered nor dropped", ErrFrameEncode, id)
		}
		done.Outcomes = append(done.Outcomes, o)
	}
	return done, nil
}
