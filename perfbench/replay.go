package main

import (
	"fmt"
	"sort"
	"time"

	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/steiner"
	"gmp/internal/view"
	"gmp/internal/wire"
)

// replayer re-runs captured service traffic through the layers the daemon
// calls, one span per layer call, on the daemon's deployment: wire decode
// and encode of each captured answer, location resolution of each request,
// and each decision through routing.Make and view.NewOracle, with the rrSTR
// build it made replayed alone.
type replayer struct {
	nw    *network.Network
	views view.Provider
	gmp   routing.Protocol
	tr    *tracer

	b         steiner.Builder
	buf       []steiner.Dest
	frame     wire.Frame
	frames    []wire.Frame
	pkt       sim.Packet
	out       []byte
	decisions int64
	perimeter int64
}

func newReplayer(nw *network.Network, views view.Provider, tr *tracer) (*replayer, error) {
	p, err := routing.Make(protocol, routing.Ctx{})
	if err != nil {
		return nil, err
	}
	return &replayer{nw: nw, views: views, gmp: p, tr: tr}, nil
}

// request replays a start request: resolution of its K destination
// locations, then the source's decision.
func (r *replayer) request(frame []byte, req int64) error {
	if err := wire.DecodeInto(&r.frame, frame); err != nil {
		return err
	}
	id := r.tr.begin("network.Resolve", -1, req)
	for _, loc := range r.frame.Dests {
		r.nw.ClosestNode(loc)
	}
	r.tr.end(id)
	return r.decide(wire.OpStart, req)
}

// hop replays one captured HOP message: decode and re-encode it, then the
// decision its receiver made on it.
func (r *replayer) hop(body []byte, req int64) error {
	id := r.tr.begin("wire.Decode", -1, req)
	hb, err := wire.DecodeHop(body)
	if err == nil {
		err = wire.DecodeInto(&r.frame, hb.Frame)
	}
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	id = r.tr.begin("wire.Encode", -1, req)
	r.out, err = wire.AppendFrame(r.out[:0], &r.frame, 0)
	if err == nil {
		hb.Frame = r.out
		r.out = wire.AppendHop(r.out, hb)
	}
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("replay encode: %w", err)
	}
	if hb.To < 0 {
		return nil // a protocol drop: nobody decides on it
	}
	return r.decide(wire.OpDecide, req)
}

// forwards replays one captured FORWARDS answer's codec work.
func (r *replayer) forwards(body []byte, req int64) error {
	id := r.tr.begin("wire.Decode", -1, req)
	fwds, err := wire.DecodeForwards(body)
	for len(r.frames) < len(fwds) {
		r.frames = append(r.frames, wire.Frame{})
	}
	for i := 0; err == nil && i < len(fwds); i++ {
		err = wire.DecodeInto(&r.frames[i], fwds[i].Frame)
	}
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("replay decode: %w", err)
	}
	id = r.tr.begin("wire.Encode", -1, req)
	out := r.out[:0]
	for i := 0; err == nil && i < len(fwds); i++ {
		start := len(out)
		out, err = wire.AppendFrame(out, &r.frames[i], 0)
		fwds[i].Frame = out[start:]
	}
	if err == nil {
		wire.EncodeForwards(fwds)
	}
	r.tr.end(id)
	r.out = out
	if err != nil {
		return fmt.Errorf("replay encode: %w", err)
	}
	return nil
}

// decide rebuilds the packet the daemon decides on from r.frame — the
// deciding node nearest the marked next hop, destinations resolved and
// merged, the decider's own destination stripped, start requests sorted and
// restamped — and times the protocol's decision on it.
func (r *replayer) decide(op byte, req int64) error {
	f := &r.frame
	node := r.nw.ClosestNode(f.NextHop)
	pkt := &r.pkt
	*pkt = sim.Packet{Hops: int(f.Hops), Anchor: -1, Dests: pkt.Dests[:0], Locs: pkt.Locs[:0]}
	seen := map[int]bool{}
	for _, loc := range f.Dests {
		id := r.nw.ClosestNode(loc)
		if f.HasAnchor() && loc == f.Anchor && pkt.Anchor < 0 {
			pkt.Anchor = id
		}
		if seen[id] || id == node {
			seen[id] = true
			continue
		}
		seen[id] = true
		pkt.Dests = append(pkt.Dests, id)
		pkt.Locs = append(pkt.Locs, loc)
	}
	if len(pkt.Dests) == 0 {
		return nil
	}
	if op == wire.OpStart {
		sort.Ints(pkt.Dests)
		for i, id := range pkt.Dests {
			pkt.Locs[i] = r.nw.Pos(id)
		}
	}
	if f.Perimeter() {
		pkt.Perimeter = true
		pkt.Peri = planar.State{Target: f.PeriTarget, Entry: f.PeriEntry, FaceEntry: f.PeriFaceEntry,
			Prev: -1, FirstFrom: -1, FirstTo: -1}
	}
	v := r.views.At(node)
	name, fn := "routing.Decide", r.gmp.Decide
	if op == wire.OpStart {
		name, fn = "routing.Start", r.gmp.Start
	}
	id := r.tr.begin(name, -1, req)
	fwds := fn(v, pkt)
	r.tr.end(id)
	r.decisions++
	perimeter := pkt.Perimeter
	for _, fw := range fwds {
		perimeter = perimeter || (fw.Pkt != nil && fw.Pkt.Perimeter)
	}
	if perimeter {
		r.perimeter++
	}
	if !pkt.Perimeter {
		r.buf = replayBuild(r.tr, -1, req, &r.b, r.buf, v.Pos(), v.Range(), pkt)
	}
	return nil
}

// report publishes the replay's per-layer metrics.
func (r *replayer) report(res *result, agg map[string]*layerTimes) {
	decideT := agg["routing.Start"].total() + agg["routing.Decide"].total()
	if r.decisions > 0 {
		res.perLayer("routing.decide_us", "us", float64(decideT)/float64(time.Microsecond)/float64(r.decisions))
		res.perLayer("routing.perimeter_frac", "frac", float64(r.perimeter)/float64(r.decisions))
	}
	res.perLayer("steiner.build_us", "us", meanUs(agg, "steiner.Build"))
	if decideT > 0 {
		res.perLayer("steiner.build_frac", "frac", agg["steiner.Build"].total().Seconds()/decideT.Seconds())
	}
	res.perLayer("wire.decode_us", "us", meanUs(agg, "wire.Decode"))
	res.perLayer("wire.encode_us", "us", meanUs(agg, "wire.Encode"))
	res.perLayer("network.resolve_us", "us", meanUs(agg, "network.Resolve"))
}
