package serve

// The server-side route walker behind the ROUTE op. A per-hop client plays
// ping-pong with the daemon: decode a frame, make one decision, re-encode,
// and pay a round trip per transmission. A ROUTE request hands the daemon
// the start frame once; the walker then runs the whole multicast walk
// in-process and streams each transmission back as a HOP message before
// summarizing every destination's fate in ROUTE_DONE.
//
// The walk is one session on the simulation kernel's hop-ordered policy
// (sim.Engine.RunHops), so every copy rule is the kernel's. This file
// supplies the memoized decision at each hop and turns the kernel's copy
// events into HOP frames and per-destination fates. Routing state stays in
// memory between hops (perimeter watchdog fields, the previous hop), which
// the per-hop wire format cannot carry. Reusing one decider's scratch, the
// kernel's recycled copies and one encode arena across every hop is where
// the streamed mode's throughput comes from (BenchmarkRouteK120 vs
// BenchmarkPerHopRouteK120; E-X14 measures the same ratio end to end).

import (
	"errors"
	"fmt"
	"sort"

	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/wire"
)

// Default walk limits, applied when Config leaves them zero.
const (
	// DefaultRouteBudget is the per-copy hop budget for ROUTE requests
	// whose body carries budget 0: the engine campaigns' usual TTL head
	// room for a K≤120 group on the paper's baseline field.
	DefaultRouteBudget = 256
	// DefaultRouteMaxSteps caps decisions per walk. A walk that exceeds it
	// is a protocol loop the hop budget failed to contain (or a hostile
	// request shaped to spin the worker); the server answers ERROR
	// CodeOverrun instead of burning the worker forever.
	DefaultRouteMaxSteps = 1 << 16
)

// ErrWalkOverrun reports a route walk that exceeded the decision ceiling.
var ErrWalkOverrun = errors.New("serve: route walk exceeded the step ceiling")

// reasonStatus maps an engine drop reason onto the wire's per-destination
// route status byte.
func reasonStatus(r sim.DropReason) byte {
	switch r {
	case sim.ReasonProtocol:
		return wire.RouteDropProtocol
	case sim.ReasonWatchdog:
		return wire.RouteDropWatchdog
	case sim.ReasonHopBudget:
		return wire.RouteDropHopBudget
	case sim.ReasonInvalidSend:
		return wire.RouteDropInvalid
	default:
		return wire.RouteDropStranded
	}
}

// walker is one decider's ROUTE walk: the sim.Handler the kernel asks at
// every hop, and the observer of its copy events. The engine and buffers
// persist across the decider's walks.
type walker struct {
	d        *decider
	en       *sim.Engine
	p        routing.Protocol
	proto    string
	hops0    int // the start frame's hop count
	maxSteps int
	emit     func(wire.HopBody) bool
	done     *wire.RouteDoneBody
	seq      uint32
	err      error
	died     map[int]byte // destination → status of the first copy death aboard
	pkts     []sim.Packet // forward packets of the current decision
	fwds     []sim.Forward
}

// walkRoute answers one ROUTE request: decode the start frame, resolve the
// destination set, and run the full multicast walk at the deciding source,
// streaming transmissions through emit and returning the summary.
//
// emit, when non-nil, is called once per copy event the decision plane
// produced — a transmission (To ≥ 0, Frame carrying the outgoing frame
// byte-identical to the per-hop DECIDE reply) or an explicit protocol drop
// (To = DropCopy/DropWatchdog sentinels). Engine-imposed kills (hop budget,
// invalid send, stranding) produce no HOP; they surface in the summary's
// outcomes. emit must fully consume hb before returning — the frame bytes
// alias the walker's arena. An emit returning false stops the stream (the
// session is saturated or gone) but never the walk: the summary's
// conservation over destinations stays exact regardless.
//
// Errors are request-mapping errors (ErrBadFrame/ErrBadOp/ErrUnservable)
// or ErrWalkOverrun; the caller maps them to wire error codes.
func (d *decider) walkRoute(protoName string, rb wire.RouteBody, emit func(hb wire.HopBody) bool) (*wire.RouteDoneBody, error) {
	p, err := d.protocol(protoName)
	if err != nil {
		return nil, err
	}
	if err := wire.DecodeInto(&d.frame, rb.Frame); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	f := &d.frame
	nw := d.dep.NW

	// frameToPacket validates the start frame (no anchor, no PERIMODE) and
	// resolves the source and the destinations other than it (d.ids);
	// d.seen records whether the source is one too. The summary reports
	// every resolved destination, and the kernel builds the start packet.
	src, _, err := d.frameToPacket(wire.OpStart, f)
	if err != nil {
		return nil, err
	}
	want := append(make([]int, 0, len(d.ids)+1), d.ids...)
	if d.seen[src] {
		want = append(want, src)
		sort.Ints(want)
	}

	budget := int(rb.Budget)
	if budget == 0 {
		budget = d.routeBudget
	}
	maxSteps := d.routeMaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultRouteMaxSteps
	}

	w := &d.walk
	if w.en == nil {
		w.en = sim.NewEngine(nw, sim.DefaultRadioParams(), 0)
		w.en.SetViews(d.views)
		w.en.SetTracer(w.observe)
		w.died = make(map[int]byte)
	}
	clear(w.died)
	done := &wire.RouteDoneBody{}
	*w = walker{d: d, en: w.en, p: p, proto: protoName, hops0: int(f.Hops),
		maxSteps: maxSteps, emit: emit, done: done, died: w.died, pkts: w.pkts, fwds: w.fwds}
	m := w.en.RunHops(sim.Session{Handler: w, Src: src, Dests: want}, budget)
	w.emit = nil
	if w.err != nil {
		return nil, w.err
	}

	// Delivered wins over any death of another copy.
	done.Hops = uint32(m.Transmissions)
	done.Outcomes = make([]wire.DestOutcome, 0, len(want))
	for _, id := range want {
		o := wire.DestOutcome{Node: int32(id), Loc: nw.Pos(id)}
		if h, ok := m.Delivered[id]; ok {
			o.Status, o.Hops = wire.RouteDelivered, uint16(min(h, 0xFFFF))
		} else if status, ok := w.died[id]; ok {
			o.Status = status
		} else { // every copy delivers or dies: a conservation bug
			return nil, fmt.Errorf("%w: destination %d neither delivered nor dropped", ErrFrameEncode, id)
		}
		done.Outcomes = append(done.Outcomes, o)
	}
	return done, nil
}

// Start implements sim.Handler. The kernel's start packet has hop count
// zero; the forwards carry the start frame's.
func (w *walker) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return w.decide(wire.OpStart, v, pkt, w.hops0)
}

// Decide implements sim.Handler: a relay's decision.
func (w *walker) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return w.decide(wire.OpDecide, v, pkt, pkt.Hops)
}

// decide runs (or recalls) the decision and hands its records to the kernel
// as forwards at hop count hops. Once the walk has failed or passed the
// step ceiling it returns none: the kernel drains what is in flight.
func (w *walker) decide(op byte, v view.NodeView, pkt *sim.Packet, hops int) []sim.Forward {
	if w.err != nil {
		return nil
	}
	if int(w.done.Decisions) >= w.maxSteps {
		w.err = ErrWalkOverrun
		return nil
	}
	recs, hit := w.d.run(w.p, w.proto, op, v, pkt)
	w.done.Decisions++
	if hit {
		w.done.CacheHits++
	}
	if cap(w.pkts) < len(recs) {
		w.pkts = make([]sim.Packet, len(recs))
	}
	w.fwds = w.fwds[:0]
	for i := range recs {
		r := &recs[i]
		q := &w.pkts[:len(recs)][i]
		*q = sim.Packet{Dests: r.Dests, Locs: r.Locs, Hops: hops, Perimeter: r.Perimeter,
			Peri: r.Peri, Anchor: r.Anchor, Session: pkt.Session}
		w.fwds = append(w.fwds, sim.Forward{To: r.To, Pkt: q})
	}
	return w.fwds
}

// observe is the kernel's copy-event observer. A death charges the
// destinations aboard that no earlier death charged; transmissions and
// protocol drops stream as HOP frames until an emit is refused.
func (w *walker) observe(ev sim.TraceEvent) {
	if w.err != nil {
		return
	}
	hops := ev.Hops
	if ev.Died {
		status := reasonStatus(ev.Reason)
		for _, id := range ev.Dests {
			if _, seen := w.died[id]; !seen {
				w.died[id] = status
			}
		}
		if ev.Reason != sim.ReasonProtocol && ev.Reason != sim.ReasonWatchdog {
			return // engine-imposed kills surface only in the outcomes
		}
		hops++ // per-hop replies encode drop frames with the bumped count
	}
	if w.emit == nil {
		return
	}
	d, q := w.d, ev.Pkt
	rec := fwdRec{To: ev.To, Dests: q.Dests, Locs: q.Locs, Perimeter: q.Perimeter,
		Peri: q.Peri, Anchor: q.Anchor}
	arena, err := d.appendForwardFrame(d.arena[:0], d.frame.Source, d.frame.Payload,
		byte(min(hops, 255)), ev.From, &rec)
	d.arena = arena
	if err != nil {
		w.err = err
		return
	}
	if !w.emit(wire.HopBody{Seq: w.seq, From: int32(ev.From), To: int32(ev.To), Frame: arena}) {
		w.emit = nil
	}
	w.seq++
}
