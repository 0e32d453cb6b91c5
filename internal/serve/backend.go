// Package serve implements gmpd's decision-service core: a hardened TCP
// daemon that answers stateless routing-decision requests over the wire
// package's session protocol.
//
// The service exists because the paper's §2 addressing model makes it
// possible: a location *is* the address, and the frame header carries
// everything a hop needs — source, marked next hop, remaining destination
// locations, PERIMODE state. A decision is therefore a pure function of
// (deployment, frame), which is exactly what the routing package's decision
// cores compute. gmpd holds the deployment (network + planar substrate) and
// turns frames into decisions for any distributed protocol in the registry.
//
// Hardening is the point, not an afterthought: bounded admission with typed
// SHED answers (never a silent drop), per-request deadlines, per-session
// idle timeouts, send backpressure with slow-client eviction, panic-isolated
// decision workers, and graceful drain. The invariant the E-X13 campaign
// audits is conservation: every admitted request is answered exactly once —
// FORWARDS, ERROR, or SHED.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/planar"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/view"
	"gmp/internal/wire"
)

// DeployConfig describes the deployment a daemon serves decisions for.
type DeployConfig struct {
	Nodes      int
	Width      float64
	Height     float64
	RadioRange float64
	Planarizer planar.Kind
	Seed       int64
}

// DefaultDeploy is the paper's baseline field: 600 nodes on 1200×1200 with
// radio range 100 (the §5 setup the sim campaigns default to).
func DefaultDeploy() DeployConfig {
	return DeployConfig{Nodes: 600, Width: 1200, Height: 1200,
		RadioRange: 100, Planarizer: planar.Gabriel, Seed: 1}
}

// Deployment is the immutable field a daemon serves: the ground-truth
// network and its planar substrate. Both are safe for concurrent readers,
// so one Deployment is shared by every worker and session.
type Deployment struct {
	NW *network.Network
	PG *planar.Graph
}

// NewDeployment deploys a seeded uniform field and planarizes it.
func NewDeployment(dc DeployConfig) (*Deployment, error) {
	nodes := network.DeployUniform(dc.Nodes, dc.Width, dc.Height,
		rand.New(rand.NewSource(dc.Seed)))
	nw, err := network.New(nodes, dc.Width, dc.Height, dc.RadioRange)
	if err != nil {
		return nil, err
	}
	return &Deployment{NW: nw, PG: planar.Planarize(nw, dc.Planarizer)}, nil
}

// Request-mapping errors; all answered as ERROR CodeBadRequest.
var (
	ErrBadFrame    = errors.New("serve: frame does not decode")
	ErrBadOp       = errors.New("serve: malformed request for op")
	ErrBadAnchor   = errors.New("serve: anchor location is not a destination")
	ErrUnservable  = errors.New("serve: protocol cannot be served")
	ErrFrameEncode = errors.New("serve: decision result does not encode")
)

// decider is one worker's private decision backend: its own view provider
// (its lazy per-node planar caches are not safe for concurrent use), its
// own protocol instances, and its own request scratch. Decision working
// memory comes from the routing package's arena pool, not from the decider.
// The deployment and the memo cache are shared and safe for concurrent use.
//
// The scratch fields are reused across this worker's sequential requests.
// That is safe under the same contract the whole stateless service stands
// on: decisions are pure, so nothing retains request state past the call,
// and every reply is fully serialized before the next request touches the
// scratch. It is what takes the per-request allocation count down from the
// build-everything-per-frame PR 9 path.
type decider struct {
	dep    *Deployment
	views  view.Provider
	protos map[string]routing.Protocol
	lambda float64
	k      int

	// cache, when non-nil, memoizes normalized decisions across all
	// workers (see cache.go).
	cache *decisionCache
	// routeBudget / routeMaxSteps are the walk limits applied to ROUTE
	// requests (see walk.go); stamped from the server config.
	routeBudget   int
	routeMaxSteps int

	frame    wire.Frame          // request frame decode target
	reqPkt   sim.Packet          // reconstructed request packet
	ids      []int               // reqPkt.Dests backing
	locs     []geom.Point        // reqPkt.Locs backing
	seen     map[int]bool        // co-location merge set
	recs     []fwdRec            // normalized decision (aliases decision output)
	replies  []wire.ForwardReply // DECIDE answer buffer
	arena    []byte              // encoded outgoing frames
	outFrame wire.Frame          // per-forward encode scratch
	keyBuf   []byte              // cache key build buffer
	walk     walker              // ROUTE walk state (walk.go)
}

func newDecider(dep *Deployment, lambda float64, k int) *decider {
	// Scratch is pre-sized for a generously large request (hundreds of
	// destinations) so the first requests a worker serves pay no growth
	// allocations: the steady state the alloc gate measures starts at
	// request one instead of after several doublings.
	const sizeHint = 256
	d := &decider{
		dep:     dep,
		views:   view.NewOracle(dep.NW, dep.PG),
		protos:  make(map[string]routing.Protocol),
		lambda:  lambda,
		k:       k,
		ids:     make([]int, 0, sizeHint),
		locs:    make([]geom.Point, 0, sizeHint),
		seen:    make(map[int]bool, sizeHint),
		recs:    make([]fwdRec, 0, 64),
		replies: make([]wire.ForwardReply, 0, 64),
		arena:   make([]byte, 0, 64<<10),
		keyBuf:  make([]byte, 0, 8<<10),
	}
	d.frame.Dests = make([]geom.Point, 0, sizeHint)
	d.outFrame.Dests = make([]geom.Point, 0, sizeHint)
	return d
}

// fwdRec is one forward of a normalized decision: exactly the
// request-independent fields that reply encoding and walk continuation
// read. Everything else in an outgoing frame — source, payload, hop
// count — comes from the request, so one record serves every request that
// hits the same decision. Records held by the cache own their slices;
// records returned on a cache miss alias the decision's output packets and
// the decider's scratch, valid only until the decider's next decision.
type fwdRec struct {
	To        int
	Dests     []int
	Locs      []geom.Point
	Perimeter bool
	Peri      planar.State
	Anchor    int
}

// run computes — or recalls from the memo cache — the normalized decision
// for op at v's node on pkt. It reports whether the result came from the
// cache. The returned records are read-only for the caller.
func (d *decider) run(p routing.Protocol, protoName string, op byte, v view.NodeView, pkt *sim.Packet) ([]fwdRec, bool) {
	var key []byte
	if d.cache != nil {
		key = d.appendCacheKey(d.keyBuf[:0], protoName, op, v.Self(), pkt)
		d.keyBuf = key
		if recs := d.cache.get(key); recs != nil {
			return recs, true
		}
	}
	var fwds []sim.Forward
	if op == wire.OpStart {
		fwds = p.Start(v, pkt)
	} else {
		fwds = p.Decide(v, pkt)
	}
	recs := d.recs[:0]
	for _, f := range fwds {
		fp := f.Pkt
		r := fwdRec{To: f.To, Dests: fp.Dests, Locs: fp.Locs,
			Perimeter: fp.Perimeter, Anchor: fp.Anchor}
		if fp.Perimeter {
			r.Peri = fp.Peri
		}
		recs = append(recs, r)
	}
	d.recs = recs
	if d.cache != nil {
		d.cache.put(key, deepCopyRecs(recs))
	}
	return recs, false
}

// deepCopyRecs clones records for cache ownership: no slice may alias a
// decision output or decider scratch. The result is non-nil even when
// empty, so a memoized stranded decision is distinguishable from a miss.
func deepCopyRecs(recs []fwdRec) []fwdRec {
	out := make([]fwdRec, len(recs))
	for i, r := range recs {
		out[i] = r
		out[i].Dests = append([]int(nil), r.Dests...)
		out[i].Locs = append([]geom.Point(nil), r.Locs...)
	}
	return out
}

// appendCacheKey canonicalizes every input the decision reads into dst:
// protocol, op, deciding node, the ordered (id, location-bits) destination
// pairs, the anchor, and — when PERIMODE is set — the full perimeter
// state. Hop count, source, session and payload are deliberately absent:
// no decision core reads them (the routing purity tests pin decisions as
// functions of exactly the keyed state), so requests differing only there
// share a memo. λ and k are per-Server constants and the cache is
// per-Server, so they need no bytes here.
func (d *decider) appendCacheKey(dst []byte, protoName string, op byte, node int, pkt *sim.Packet) []byte {
	dst = append(dst, protoName...)
	dst = append(dst, 0, op)
	dst = binary.BigEndian.AppendUint32(dst, uint32(node))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(pkt.Anchor)))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(pkt.Dests)))
	for i, id := range pkt.Dests {
		dst = binary.BigEndian.AppendUint32(dst, uint32(id))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(pkt.Locs[i].X))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(pkt.Locs[i].Y))
	}
	if !pkt.Perimeter {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	st := &pkt.Peri
	for _, pt := range [...]geom.Point{st.Target, st.Entry, st.FaceEntry} {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(pt.X))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(pt.Y))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(st.Prev)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(st.FirstFrom)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(st.FirstTo)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(st.WalkHops)))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(st.WalkDist))
	var b byte
	if st.Restarted {
		b |= 1
	}
	if st.AltPlanar {
		b |= 2
	}
	return append(dst, b)
}

// CheckServable validates that the named protocol exists and is servable by
// a stateless decision daemon. Centralized protocols (SMT) are rejected:
// their Start consumes the ground-truth network, which is not the §2
// knowledge model the service exposes.
func CheckServable(name string) error {
	sp, ok := routing.Lookup(name)
	if !ok {
		return fmt.Errorf("%w: %w: %q", ErrUnservable, routing.ErrUnknownProtocol, name)
	}
	if sp.Flags&routing.FlagCentralized != 0 {
		return fmt.Errorf("%w: %q is centralized", ErrUnservable, name)
	}
	return nil
}

// protocol returns the worker's instance of the named protocol, building it
// on first use.
func (d *decider) protocol(name string) (routing.Protocol, error) {
	if p, ok := d.protos[name]; ok {
		return p, nil
	}
	if err := CheckServable(name); err != nil {
		return nil, err
	}
	p, err := routing.Make(name, routing.Ctx{Lambda: d.lambda, LambdaSet: true, K: d.k})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrUnservable, err)
	}
	d.protos[name] = p
	return p, nil
}

// decide answers one DECIDE request: decode the frame, reconstruct the
// routing state, run (or recall) the protocol's pure decision core at the
// deciding node, and re-encode the forward set. It is called inside the
// worker's panic isolation — a panicking protocol (or a frame crafted to
// trip one) costs an ERROR answer, never the daemon.
//
// The returned replies alias the decider's scratch: they are valid until
// this decider's next request and must be fully serialized before then
// (the worker loop does exactly that).
func (d *decider) decide(protoName string, req wire.DecideBody) ([]wire.ForwardReply, error) {
	p, err := d.protocol(protoName)
	if err != nil {
		return nil, err
	}
	if err := wire.DecodeInto(&d.frame, req.Frame); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFrame, err)
	}
	f := &d.frame
	node, pkt, err := d.frameToPacket(req.Op, f)
	if err != nil {
		return nil, err
	}
	if pkt == nil { // every destination resolved to the deciding node
		return []wire.ForwardReply{}, nil
	}
	recs, _ := d.run(p, protoName, req.Op, d.views.At(node), pkt)
	return d.recsToReplies(f, node, recs)
}

// frameToPacket reconstructs the deciding node and the in-flight packet from
// a frame, mirroring the simulation engine's Start/arrive semantics:
//
//   - the deciding node is the one closest to the marked next-hop location
//     (§2: "the corresponding node picks up the packet");
//   - destination locations resolve to node IDs the same way; locations
//     that resolve to the same node merge into one destination (keeping the
//     first carried location) — under location-as-address, co-located
//     subscribers *are* the same destination;
//   - destinations equal to the deciding node are delivered here and
//     stripped, exactly as the engine's arrive does;
//   - OpStart sorts destinations ascending and restamps header locations
//     from the network's advertised positions (the engine's Start path);
//     OpDecide keeps the header locations as carried — staleness in the
//     header is part of the model.
//
// A nil packet with nil error means every destination was the deciding node:
// fully delivered, the answer is an empty FORWARDS.
//
// Fidelity note: the wire format does not carry the perimeter watchdog
// fields or the previous hop, so a reconstructed perimeter state re-enters
// with Prev = -1 and a fresh (disarmed) watchdog — the documented cost of
// statelessness, identical to what a node would know after a neighbor
// table flush.
func (d *decider) frameToPacket(op byte, f *wire.Frame) (int, *sim.Packet, error) {
	nw := d.dep.NW
	node := nw.ClosestNode(f.NextHop)
	pkt := &d.reqPkt
	*pkt = sim.Packet{Hops: int(f.Hops), Anchor: -1}
	if d.seen == nil {
		d.seen = make(map[int]bool, 64)
	}
	clear(d.seen)

	switch op {
	case wire.OpStart:
		if f.HasAnchor() {
			return 0, nil, fmt.Errorf("%w: anchor on a start request", ErrBadOp)
		}
		if f.Perimeter() {
			return 0, nil, fmt.Errorf("%w: PERIMODE on a start request", ErrBadOp)
		}
		ids := d.ids[:0]
		seen := d.seen
		for _, loc := range f.Dests {
			id := nw.ClosestNode(loc)
			if seen[id] {
				continue // co-located subscribers merge
			}
			seen[id] = true
			if id == node {
				continue // delivered at the source, hop 0
			}
			ids = append(ids, id)
		}
		if len(ids) == 0 {
			d.ids = ids
			return node, nil, nil
		}
		sort.Ints(ids)
		locs := d.locs[:0]
		for _, id := range ids {
			locs = append(locs, nw.Pos(id))
		}
		d.ids, d.locs = ids, locs
		pkt.Dests, pkt.Locs = ids, locs

	case wire.OpDecide:
		ids := d.ids[:0]
		locs := d.locs[:0]
		seen := d.seen
		anchor := -1
		for _, loc := range f.Dests {
			id := nw.ClosestNode(loc)
			if f.HasAnchor() && loc == f.Anchor && anchor < 0 {
				anchor = id
			}
			if seen[id] {
				continue // co-located subscribers merge
			}
			seen[id] = true
			if id == node {
				continue // delivered here
			}
			ids = append(ids, id)
			locs = append(locs, loc)
		}
		if f.HasAnchor() && anchor < 0 {
			return 0, nil, ErrBadAnchor
		}
		// An anchor that resolved to the deciding node stays set even though
		// the destination itself was just stripped: that is exactly the
		// engine's state at a subtree root, and the anchor protocols detect
		// re-partitioning by Anchor == Self (LGS/LGK/MCFR). Mapping it to -1
		// would send them down the relay path with no anchor to aim at.
		d.ids, d.locs = ids, locs
		if len(ids) == 0 {
			return node, nil, nil
		}
		pkt.Dests, pkt.Locs, pkt.Anchor = ids, locs, anchor
		if f.Perimeter() {
			pkt.Perimeter = true
			pkt.Peri = planar.State{
				Target:    f.PeriTarget,
				Entry:     f.PeriEntry,
				FaceEntry: f.PeriFaceEntry,
				Prev:      -1,
				FirstFrom: -1,
				FirstTo:   -1,
			}
		}

	default:
		return 0, nil, fmt.Errorf("%w: op %d", ErrBadOp, op)
	}
	return node, pkt, nil
}

// recsToReplies re-encodes a normalized decision as wire replies, each
// frame ready to transmit: hop count bumped (saturating, as the engine does
// per transmission), next hop marked with the receiver's advertised
// position, routing state (PERIMODE, anchor) carried per copy, and the
// request's source and payload preserved. The replies alias the decider's
// reply buffer and encode arena.
func (d *decider) recsToReplies(req *wire.Frame, node int, recs []fwdRec) ([]wire.ForwardReply, error) {
	out := d.replies[:0]
	arena := d.arena[:0]
	hops := req.Hops
	if hops < 255 {
		hops++
	}
	var err error
	for i := range recs {
		start := len(arena)
		arena, err = d.appendForwardFrame(arena, req.Source, req.Payload, hops, node, &recs[i])
		if err != nil {
			return nil, err
		}
		// A mid-loop arena regrow leaves earlier replies pointing at the old
		// backing array — still valid, never mutated again.
		out = append(out, wire.ForwardReply{
			To:    int32(recs[i].To),
			Frame: arena[start:len(arena):len(arena)],
		})
	}
	d.replies, d.arena = out, arena
	return out, nil
}

// appendForwardFrame encodes the outgoing frame for one forward record
// into arena and returns the extended arena. It is the single encode path
// for per-hop FORWARDS replies and streamed HOP frames, so the two modes
// are byte-identical by construction. node is where the copy currently
// sits (a dropped copy's frame dies there).
func (d *decider) appendForwardFrame(arena []byte, source geom.Point, payload []byte, hops byte, node int, r *fwdRec) ([]byte, error) {
	nw := d.dep.NW
	of := &d.outFrame
	dests := append(of.Dests[:0], r.Locs...)
	*of = wire.Frame{
		Hops:    hops,
		Source:  source,
		Payload: payload,
		Dests:   dests,
	}
	if r.To >= 0 {
		of.NextHop = nw.Pos(r.To)
	} else {
		of.NextHop = nw.Pos(node) // dropped copy dies where it stands
	}
	if r.Perimeter {
		of.Flags |= wire.FlagPerimeter
		of.PeriTarget = r.Peri.Target
		of.PeriEntry = r.Peri.Entry
		of.PeriFaceEntry = r.Peri.FaceEntry
	}
	if r.Anchor >= 0 {
		loc, ok := recLocOf(r, r.Anchor)
		if !ok {
			return arena, fmt.Errorf("%w: anchor %d not in forward's header", ErrFrameEncode, r.Anchor)
		}
		of.Flags |= wire.FlagAnchor
		of.Anchor = loc
	}
	arena, err := wire.AppendFrame(arena, of, 0)
	if err != nil {
		return arena, fmt.Errorf("%w: %w", ErrFrameEncode, err)
	}
	return arena, nil
}

// recLocOf is Packet.LocOf without the panic: the service reports a missing
// anchor as a typed error instead of trusting protocol invariants with the
// daemon's life.
func recLocOf(r *fwdRec, id int) (geom.Point, bool) {
	for i, d := range r.Dests {
		if d == id {
			return r.Locs[i], true
		}
	}
	return geom.Point{}, false
}
