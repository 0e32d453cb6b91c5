package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"gmp/internal/geom"
	"gmp/internal/network"
	"gmp/internal/view"
)

// This file is the simulation kernel: the one implementation of the copy
// rules (view, kill, bill, apply, send, transmit, receive, ACK, give-up,
// arrive), executed as typed events on lanes. The single-queue policy runs
// every event on one lane; the tiled policy (shard.go) runs one lane per
// network tile between window barriers; the hop-ordered policy (RunHops)
// runs one session in hop order. The copy rules below know which policy is
// running only at the documented points (package doc, DESIGN.md §2.4): the
// fault stream (one per run vs one per tile), ARQ give-up (inline vs an
// evGiveUp event), churn (per hop vs per barrier), tracing (tiled runs
// refuse a tracer), and transmission timing and copy recycling (hop order).

// ValidHop reports whether a node may transmit to another: the target is a
// real node other than the sender and within its radio range. Forwards
// failing it are invalid sends — a protocol bug the engine bills as
// ReasonInvalidSend instead of transmitting.
func ValidHop(nw *network.Network, from, to int) bool {
	return to >= 0 && to < nw.Len() && from != to && nw.InRange(from, to)
}

// laneSession is one lane's share of a session's mutable state: metric
// partials, and the dead-link blacklist entries of the nodes this lane owns.
type laneSession struct {
	m SessionMetrics
	// banned holds the session's dead-link blacklist: sender node → set of
	// neighbors ARQ gave up on from there. Installed at every ARQ give-up,
	// so all later decisions at that node (greedy, grouping, perimeter)
	// exclude the dead neighbor via a masking view.
	banned map[int]map[int]bool
	// masks caches the masking views, one per banned-at node, invalidated
	// whenever that node's ban set grows.
	masks map[int]*view.Masked
	// pending defers per-destination drop billing for redundant-copy
	// sessions (RedundantHandler): destination → first drop observed in this
	// lane, with its lane time so merge can pick the globally-first one
	// deterministically. Lazily allocated; nil for ordinary sessions.
	pending map[int]pendingDrop
}

// pendingDrop is one deferred per-destination drop charge.
type pendingDrop struct {
	reason DropReason
	at     float64
}

// lane is one execution context: an event heap, a clock, a packet free list
// and per-session partials. During a tiled round a lane is advanced by
// exactly one worker goroutine; between rounds only the coordinator touches
// it. Everything a hop needs is either lane-local or read-only. Lanes (and
// their free lists) persist on the Engine across runs.
type lane struct {
	id  int
	now float64
	seq int64
	q   eventHeap

	mu    sync.Mutex
	inbox []event

	rng  *rand.Rand
	free []*Packet
	sess []laneSession
	cur  int // session whose handler is currently executing
}

// reset prepares a lane for a run of n sessions. The free list, the queue
// storage and the session partials' (cleared) metric maps carry over, so a
// steady stream of runs on one engine allocates nothing here.
func (ln *lane) reset(n int) {
	clear(ln.q)
	ln.q = ln.q[:0]
	ln.inbox = ln.inbox[:0]
	ln.now, ln.seq, ln.cur = 0, 0, 0
	ln.rng = nil
	if cap(ln.sess) < n {
		ln.sess = append(ln.sess[:cap(ln.sess)], make([]laneSession, n-cap(ln.sess))...)
	}
	ln.sess = ln.sess[:n]
	for i := range ln.sess {
		m := &ln.sess[i].m
		clear(m.Delivered)
		clear(m.DeliveredAt)
		clear(m.EnergyByNode)
		ln.sess[i] = laneSession{m: SessionMetrics{
			TaskMetrics: TaskMetrics{Delivered: m.Delivered, EnergyByNode: m.EnergyByNode},
			DeliveredAt: m.DeliveredAt,
		}}
	}
}

// resize returns s with n zero elements, reusing its storage when it is
// large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// schedule enqueues an event on ln's own queue, stamping the lane's
// (tile, seq) origin key. Only the lane's current worker (or the
// coordinator, between rounds) may call it.
func (ln *lane) schedule(ev event) {
	ev.tile = int32(ln.id)
	ev.seq = ln.seq
	ln.seq++
	ln.q.push(ev)
}

// post delivers an event to this lane's inbox. Called by other lanes during
// a round; the inbox is merged into the queue at the next barrier, where the
// heap's key order erases any trace of arrival order.
func (ln *lane) post(ev event) {
	ln.mu.Lock()
	ln.inbox = append(ln.inbox, ev)
	ln.mu.Unlock()
}

// getPkt returns a packet from the lane's free list. Lanes share nothing:
// each recycles its own packets, so the hot path stays allocation-free
// without a contended global pool.
func (ln *lane) getPkt() *Packet {
	if n := len(ln.free); n > 0 {
		p := ln.free[n-1]
		ln.free = ln.free[:n-1]
		return p
	}
	return new(Packet)
}

// freePkt recycles p into the lane's free list. The caller must own the only
// live reference to p AND to its Dests/Locs backing arrays: the kernel calls
// this only for copies it cloned itself (in send) that were never handed to
// any handler — a handler may legally retain or alias a packet it was shown
// (decisions may stash copies, and CloneFor adopts caller slices), so
// handler-exposed packets are left to the garbage collector, except under
// the hop-ordered policy, whose contract forbids handlers to retain them.
func (ln *lane) freePkt(p *Packet) {
	*p = Packet{Dests: p.Dests[:0], Locs: p.Locs[:0]}
	ln.free = append(ln.free, p)
}

// clonePkt is Packet.Clone backed by the lane's free list.
func (ln *lane) clonePkt(p *Packet) *Packet {
	q := ln.getPkt()
	dests := append(q.Dests[:0], p.Dests...)
	locs := append(q.Locs[:0], p.Locs...)
	*q = *p
	q.Dests = dests
	q.Locs = locs
	return q
}

// kernelRun is one RunScript or RunHops execution. The Engine keeps the last
// one, so the next run reuses its lanes and scratch storage.
type kernelRun struct {
	e         *Engine
	lanes     []*lane
	tiled     bool
	window    float64
	busyUntil []float64
	dead      []bool // nil when the plan schedules no crashes
	handlers  []Handler
	redundant []bool
	churn     []*sessionChurn // nil without churn events; nil entries for unaffected sessions
	// base holds the coordinator-owned part of each session's metrics:
	// prologue deliveries at the source and churn accounting. Lane partials
	// are merged into it, in lane order, at the end of the run.
	base []SessionMetrics

	hopOrdered bool // RunHops' policy
	maxHops    int  // the run's hop budget
}

// shardTileSeedStride separates per-tile fault streams; like the experiment
// package's seed strides it is an arbitrary frozen prime.
const shardTileSeedStride = 15485863

// newRun is the shared run prologue: validate the script, set up the lanes
// for the installed policy, schedule crashes, then each session's start —
// in that order, which fixes the (time, seq) stamps of every pre-run event.
func (e *Engine) newRun(sessions []Session) *kernelRun {
	for i, s := range sessions {
		if !(s.Start >= 0) || math.IsInf(s.Start, 0) {
			panic(fmt.Sprintf("sim: session %d start %v is not a finite non-negative time", i, s.Start))
		}
	}
	if e.churn.hasEvents() {
		for _, m := range append(append([]Membership(nil), e.churn.Joins...), e.churn.Leaves...) {
			if m.Session >= len(sessions) {
				panic(fmt.Sprintf("sim: churn event for session %d, script has %d", m.Session, len(sessions)))
			}
		}
	}
	r := &e.run
	*r = kernelRun{
		e:         e,
		lanes:     r.lanes,
		tiled:     e.sharding != (ShardConfig{}),
		window:    e.sharding.Window,
		maxHops:   e.maxHops,
		busyUntil: resize(r.busyUntil, e.net.Len()),
		handlers:  resize(r.handlers, len(sessions)),
		redundant: resize(r.redundant, len(sessions)),
		base:      make([]SessionMetrics, len(sessions)),
	}
	if r.tiled {
		r.checkWindow()
	}
	if e.views == nil {
		e.views = view.NewOracle(e.net, nil)
	}

	nLanes := 1
	if r.tiled {
		nLanes = e.net.Tiles()
	}
	if len(r.lanes) != nLanes {
		r.lanes = make([]*lane, nLanes)
		for i := range r.lanes {
			r.lanes[i] = &lane{id: i}
		}
	}
	// Fault randomness is deterministic but advances across runs: the Nth
	// run after SetFaults draws from seed(plan)⊕f(N), so successive tasks
	// in a batch see independent loss patterns while the whole batch stays
	// a pure function of (network, plan, run order). Re-install the plan to
	// rewind the stream. Tiled runs give each tile its own stream.
	runSeed := e.faults.seed() + e.runSeq*6364136223846793005
	for i, ln := range r.lanes {
		ln.reset(len(sessions))
		if e.faults.Active() {
			seed := runSeed
			if r.tiled {
				seed += int64(i+1) * shardTileSeedStride
			}
			ln.rng = rand.New(rand.NewSource(seed))
		}
	}
	e.runSeq++

	if len(e.faults.Crashes) > 0 {
		r.dead = make([]bool, e.net.Len())
		for _, c := range e.faults.Crashes {
			ln := r.laneOf(c.Node)
			ln.schedule(event{time: c.At, kind: evCrash, from: c.Node})
			if c.RecoverAt > c.At {
				ln.schedule(event{time: c.RecoverAt, kind: evRecover, from: c.Node})
			}
		}
	}
	if e.churn.hasEvents() {
		r.churn = make([]*sessionChurn, len(sessions))
	}

	for i, s := range sessions {
		r.handlers[i] = s.Handler
		r.redundant[i] = redundantCopies(s.Handler)
		if r.churn != nil {
			r.churn[i] = e.churn.newSessionChurn(i, s.Src, s.Dests)
		}
		r.base[i] = SessionMetrics{
			TaskMetrics: TaskMetrics{
				Delivered: make(map[int]int, len(s.Dests)),
				DestCount: len(s.Dests),
			},
			StartTime:   s.Start,
			DeliveredAt: make(map[int]float64, len(s.Dests)),
		}
		if e.perNode {
			r.base[i].EnergyByNode = make(map[int]float64)
		}
		remaining := make([]int, 0, len(s.Dests))
		for _, d := range s.Dests {
			if d == s.Src {
				r.base[i].Delivered[d] = 0
				r.base[i].DeliveredAt[d] = s.Start
				continue
			}
			remaining = append(remaining, d)
		}
		sort.Ints(remaining)
		if len(remaining) > 0 {
			locs := make([]geom.Point, len(remaining))
			for j, d := range remaining {
				locs[j] = e.net.Pos(d)
			}
			pkt := &Packet{Dests: remaining, Locs: locs, Session: i, Anchor: -1}
			r.laneOf(s.Src).schedule(event{time: s.Start, kind: evStart, from: s.Src, sess: i, pkt: pkt})
		}
	}
	return r
}

// laneOf returns the lane owning node id.
func (r *kernelRun) laneOf(node int) *lane {
	if !r.tiled {
		return r.lanes[0]
	}
	return r.lanes[r.e.net.Tile(node)]
}

// send routes an event to the lane owning node `to`: pushed directly when
// that is the current lane, posted to the inbox otherwise. The origin key
// is the sending lane's in both cases.
func (r *kernelRun) send(from *lane, to int, ev event) {
	target := r.laneOf(to)
	if target == from {
		from.schedule(ev)
		return
	}
	ev.tile = int32(from.id)
	ev.seq = from.seq
	from.seq++
	target.post(ev)
}

// execute runs the script to completion under the installed policy, then
// settles the per-session metrics.
func (r *kernelRun) execute() []SessionMetrics {
	if r.tiled {
		r.runWindows()
	} else {
		r.advance(r.lanes[0], math.Inf(1))
	}
	r.churnEpilogue()
	return r.merge()
}

// advance executes ln's events strictly before horizon, in key order.
func (r *kernelRun) advance(ln *lane, horizon float64) {
	for len(ln.q) > 0 && ln.q[0].time < horizon {
		ev := ln.q.pop()
		if ev.time > ln.now {
			ln.now = ev.time
		}
		r.dispatch(ln, ev)
	}
}

// dispatch executes one event in lane context.
func (r *kernelRun) dispatch(ln *lane, ev event) {
	switch ev.kind {
	case evCrash:
		r.dead[ev.from] = true
	case evRecover:
		r.dead[ev.from] = false
	case evStart:
		ln.cur = ev.sess
		pkt := ev.pkt
		r.hopChurn(pkt, ev.from, ln.now)
		if len(pkt.Dests) == 0 {
			// Everyone aboard left at or before the start; the retirements
			// are already billed.
			return
		}
		fwds := r.handlers[ev.sess].Start(r.viewAt(ln, ev.sess, ev.from), pkt)
		if len(fwds) == 0 {
			r.kill(ln, ev.from, -1, pkt, ReasonStranded)
			return
		}
		r.billUncovered(ln, pkt, fwds)
		r.apply(ln, ev.from, fwds)
	case evReceive:
		r.receive(ln, ev)
	case evRetransmit:
		if len(ev.pkt.Dests) == 0 {
			// A barrier leave emptied the copy while the retry was queued.
			ln.freePkt(ev.pkt)
			return
		}
		r.transmit(ln, ev.from, ev.to, ev.pkt, ev.attempt)
	case evGiveUp:
		r.giveUp(ln, ev.from, ev.to, ev.pkt)
	}
}

// viewAt returns node's view for session sess. When the session's dead-link
// blacklist bans neighbors at this node, the base view is wrapped in a
// masking decorator so every decision — greedy, grouping, perimeter —
// excludes them. Sessions without bans (every fault-free run) get the
// unwrapped base view, keeping the zero-fault path a strict no-op. A node's
// bans live in its own lane, so the decorator cache is lane-private.
func (r *kernelRun) viewAt(ln *lane, sess, node int) view.NodeView {
	base := r.e.views.At(node)
	st := &ln.sess[sess]
	b := st.banned[node]
	if len(b) == 0 {
		return base
	}
	mv, ok := st.masks[node]
	if !ok {
		mv = view.NewMasked(base, b)
		if st.masks == nil {
			st.masks = make(map[int]*view.Masked)
		}
		st.masks[node] = mv
	}
	return mv
}

// apply executes a decision's forward list from node `from`, in order:
// transmissions via sendPkt, DropCopy/DropWatchdog entries via kill. This is
// the only path from a protocol decision to the air — handlers return data,
// the kernel acts on it. Kills are attributed to the packet's own session,
// not whichever handler happens to be executing, so deferred drops in
// concurrent scripts cannot be mis-billed.
func (r *kernelRun) apply(ln *lane, from int, fwds []Forward) {
	for _, f := range fwds {
		switch f.To {
		case DropCopy:
			r.kill(ln, from, f.To, f.Pkt, ReasonProtocol)
		case DropWatchdog:
			r.kill(ln, from, f.To, f.Pkt, ReasonWatchdog)
		default:
			r.sendPkt(ln, from, f.To, f.Pkt)
		}
	}
}

// kill records a packet copy's death at node `at` (To `to`, see TraceEvent):
// one copy-level event plus the destinations still aboard, both indexed by
// reason and billed to the packet's own session, and reported.
func (r *kernelRun) kill(ln *lane, at, to int, pkt *Packet, reason DropReason) {
	ls := &ln.sess[pkt.Session]
	ls.m.DropsByReason[reason]++
	r.billDests(ln, pkt.Session, pkt.Dests, reason)
	r.observe(ln.now, at, to, pkt, true, reason)
}

// observe reports one copy event to the tracer, if one is installed.
func (r *kernelRun) observe(at float64, from, to int, pkt *Packet, died bool, reason DropReason) {
	if r.e.tracer != nil {
		r.e.tracer(TraceEvent{Time: at, From: from, To: to, Hops: pkt.Hops, Dests: pkt.Dests,
			Perimeter: pkt.Perimeter, Died: died, Reason: reason, Pkt: pkt})
	}
}

// billDests charges the per-destination half of a drop. Ordinary sessions
// are billed immediately; redundant-copy sessions defer into the lane's
// pending map (first reason wins — another live copy may still deliver the
// destination), stamped with the lane clock so merge can settle the
// globally-first drop.
func (r *kernelRun) billDests(ln *lane, si int, dests []int, reason DropReason) {
	ls := &ln.sess[si]
	if !r.redundant[si] {
		ls.m.DestDropsByReason[reason] += len(dests)
		return
	}
	for _, d := range dests {
		ls.deferDrop(d, reason, ln.now)
	}
}

// deferDrop records d's first deferred drop reason, stamped with lane time
// at.
func (ls *laneSession) deferDrop(d int, reason DropReason, at float64) {
	if ls.pending == nil {
		ls.pending = make(map[int]pendingDrop)
	}
	if _, seen := ls.pending[d]; !seen {
		ls.pending[d] = pendingDrop{reason: reason, at: at}
	}
}

// billUncovered bills destinations aboard pkt that no forward in fwds
// carries. Correct partition-discipline cores hand every remaining
// destination to exactly one forward, but a spliced-in join can fall outside
// state a core froze at Start (SMT's embedded source route is the canonical
// case) — the copy forwards on without the newcomer, which would otherwise
// leak out of the conservation accounting. Billed as ReasonStranded: the
// protocol had no plan for the destination. Only sessions with churn events
// run this scan, so churn-free runs stay byte-identical.
func (r *kernelRun) billUncovered(ln *lane, pkt *Packet, fwds []Forward) {
	if r.churn == nil || r.churn[pkt.Session] == nil {
		return
	}
	ls := &ln.sess[pkt.Session]
	var n int
	for _, d := range pkt.Dests {
		covered := false
	scan:
		for _, f := range fwds {
			for _, fd := range f.Pkt.Dests {
				if fd == d {
					covered = true
					break scan
				}
			}
		}
		if !covered {
			n++
			if r.redundant[pkt.Session] {
				ls.deferDrop(d, ReasonStranded, ln.now)
			}
		}
	}
	if n > 0 {
		ls.m.DropsByReason[ReasonStranded]++
		if !r.redundant[pkt.Session] {
			ls.m.DestDropsByReason[ReasonStranded] += n
		}
	}
}

// sendPkt transmits a copy of pkt from node `from` to its neighbor `to`. It
// bills an invalid send, or clones the packet into the executing session,
// enforces the hop budget and transmits. Destination bookkeeping happens at
// arrival. Packets are attributed to the session whose handler is
// executing; handlers never need to stamp session IDs themselves.
func (r *kernelRun) sendPkt(ln *lane, from, to int, pkt *Packet) {
	ls := &ln.sess[ln.cur]
	if !ValidHop(r.e.net, from, to) {
		ls.m.InvalidSends++
		ls.m.DropsByReason[ReasonInvalidSend]++
		r.billDests(ln, ln.cur, pkt.Dests, ReasonInvalidSend)
		r.observe(ln.now, from, to, pkt, true, ReasonInvalidSend)
		return
	}
	copyPkt := ln.clonePkt(pkt)
	copyPkt.Session = ln.cur
	copyPkt.Hops++
	if r.maxHops > 0 && copyPkt.Hops > r.maxHops {
		r.kill(ln, from, -1, copyPkt, ReasonHopBudget)
		ln.freePkt(copyPkt) // fresh kernel clone, never left this function
		return
	}
	r.transmit(ln, from, to, copyPkt, 0)
}

// transmit puts one data frame on the air (attempt 0 is the original send,
// higher attempts are ARQ retransmissions). It charges airtime and energy,
// serializes on the sender's half-duplex radio, draws the frame's fault
// fate, and schedules the reception. It always runs in the sender's lane, so
// the serialization state and the fault stream are lane-local. In hop order
// the frame arrives one hop later, unserialized.
func (r *kernelRun) transmit(ln *lane, from, to int, pkt *Packet, attempt int) {
	e := r.e
	m := &ln.sess[pkt.Session].m
	if r.isDead(from) {
		// The sender's radio died before this (re)transmission went out.
		r.kill(ln, from, to, pkt, ReasonSenderCrashed)
		ln.freePkt(pkt) // kernel clone, still unexposed to any handler
		return
	}
	frame := e.frameBytes(pkt)
	airtime := e.radio.TxTimeBytes(frame)

	txStart, arrival := ln.now, ln.now+1
	if !r.hopOrdered {
		if r.busyUntil[from] > txStart {
			txStart = r.busyUntil[from]
		}
		r.busyUntil[from] = txStart + airtime
		arrival = txStart + airtime
	}

	m.Transmissions++
	if attempt > 0 {
		m.Retransmissions++
	}
	m.EnergyJ += e.radio.TxEnergyBytes(frame, e.net.Degree(from))
	r.chargeLedger(m, from, airtime)
	r.observe(txStart, from, to, pkt, false, 0)
	// The frame's on-air fate is drawn at send time (deterministically, in
	// event order); whether the receiver is alive is checked at arrival
	// time, so a crash mid-flight loses the frame.
	lost := false
	if ln.rng != nil {
		if p := e.faults.lossProb(e.net.Dist(from, to), e.net.Range()); p > 0 {
			lost = ln.rng.Float64() < p
		}
	}
	if !lost && e.churn.Motion != nil && !e.motionInRange(from, to, txStart) {
		// The nodes' true positions have drifted out of radio range: the
		// frame is lost on the air regardless of what the routing state
		// believes. ARQ retries re-sample the stream — a node that swings
		// back into range can still be reached.
		lost = true
	}
	r.send(ln, to, event{
		time: arrival, kind: evReceive,
		from: from, to: to, attempt: attempt, lost: lost, pkt: pkt,
	})
}

// chargeLedger books a frame's per-node energy in the ledger, when it is
// on: the sender's transmit draw and every neighbor's receive draw.
func (r *kernelRun) chargeLedger(m *SessionMetrics, node int, airtime float64) {
	e := r.e
	if !e.perNode {
		return
	}
	if m.EnergyByNode == nil {
		m.EnergyByNode = make(map[int]float64)
	}
	m.EnergyByNode[node] += e.radio.TxPowerW * airtime
	for _, l := range e.net.Neighbors(node) {
		m.EnergyByNode[l] += e.radio.RxPowerW * airtime
	}
}

// isDead reports whether node's radio is crashed at the current time.
func (r *kernelRun) isDead(node int) bool { return r.dead != nil && r.dead[node] }

// receive resolves one frame's fate at its arrival time, in the receiver's
// lane: deliver (plus ACK under ARQ), schedule a retransmission at the
// sender, or give up after the last failed attempt. The single-queue policy
// gives up inline, at this arrival; the tiled policy posts the give-up to
// the sender's lane one backed-off timeout later — physically, the sender's
// last timer expiring — because bans and re-route decisions are sender-tile
// state the receiver's tile must not touch directly.
func (r *kernelRun) receive(ln *lane, ev event) {
	e := r.e
	pkt := ev.pkt
	if !ev.lost && !r.isDead(ev.to) {
		if e.arq.Enabled {
			r.sendAck(ln, ev.to, pkt)
		}
		r.arrive(ln, ev.to, pkt)
		return
	}
	if !e.arq.Enabled {
		// Without ARQ the sender never learns; the copy silently dies.
		if ev.lost {
			r.kill(ln, ev.from, ev.to, pkt, ReasonLinkLoss)
		} else {
			r.kill(ln, ev.from, ev.to, pkt, ReasonCrashedReceiver)
		}
		ln.freePkt(pkt) // kernel clone, died in flight: no handler saw it
		return
	}
	exhausted := ev.attempt >= e.arq.MaxRetries
	if exhausted && !r.tiled {
		r.giveUp(ln, ev.from, ev.to, pkt)
		return
	}
	next := event{time: ln.now + e.arq.Timeout*math.Pow(e.arq.Backoff, float64(ev.attempt)),
		kind: evRetransmit, from: ev.from, to: ev.to, attempt: ev.attempt + 1, pkt: pkt}
	if exhausted {
		next.kind = evGiveUp
	}
	r.send(ln, ev.from, next)
}

// giveUp executes ARQ exhaustion at the sender: count the link failure, ban
// the link, offer the copy to the NackHandler, and bill it if no re-route
// salvages it. The link is banned before the callback, so the view handed
// to the handler masks the dead neighbor.
func (r *kernelRun) giveUp(ln *lane, from, to int, pkt *Packet) {
	if len(pkt.Dests) == 0 {
		// A barrier leave emptied the copy while the give-up was queued.
		ln.freePkt(pkt)
		return
	}
	st := &ln.sess[pkt.Session]
	st.m.LinkFailures++
	if st.banned == nil {
		st.banned = make(map[int]map[int]bool)
	}
	b := st.banned[from]
	if b == nil {
		b = make(map[int]bool)
		st.banned[from] = b
	}
	b[to] = true
	delete(st.masks, from)

	nh, hasNack := r.handlers[pkt.Session].(NackHandler)
	if !hasNack {
		r.kill(ln, from, to, pkt, ReasonARQExhausted)
		ln.freePkt(pkt) // no NackHandler: the copy never reached a handler
		return
	}
	ln.cur = pkt.Session
	fwds := nh.Nack(r.viewAt(ln, pkt.Session, from), to, pkt)
	if len(fwds) == 0 {
		// The handler declined the copy; it has still *seen* it (and may
		// alias it), so the kill is billed but the storage is left to GC.
		r.kill(ln, from, to, pkt, ReasonARQExhausted)
		return
	}
	r.billUncovered(ln, pkt, fwds)
	r.apply(ln, from, fwds)
}

// sendAck charges the receiver's ACK frame: airtime on its radio and energy
// against the packet's session. ACKs are modeled loss-free (see ARQConfig).
func (r *kernelRun) sendAck(ln *lane, node int, pkt *Packet) {
	e := r.e
	m := &ln.sess[pkt.Session].m
	airtime := e.radio.TxTimeBytes(e.arq.AckBytes)
	start := ln.now
	if r.busyUntil[node] > start {
		start = r.busyUntil[node]
	}
	r.busyUntil[node] = start + airtime
	m.Acks++
	m.EnergyJ += e.radio.TxEnergyBytes(e.arq.AckBytes, e.net.Degree(node))
	r.chargeLedger(m, node, airtime)
}

// arrive applies hop-time churn (single-queue policy), records deliveries at
// the receiving node, strips it from the destination list, and asks the
// protocol for the next decision if work remains. Crashed nodes receive
// nothing (receive checks first). A decision that returns no forwards while
// destinations remain strands the copy, billed as ReasonStranded. Deliveries
// of a destination always happen in the destination's own lane, so the
// duplicate check needs only the lane partial. The hop-ordered policy
// recycles the copy once its decision is applied (RunHops' contract).
func (r *kernelRun) arrive(ln *lane, node int, pkt *Packet) {
	ln.cur = pkt.Session
	r.hopChurn(pkt, node, ln.now)
	if len(pkt.Dests) == 0 {
		// Every destination aboard left; the copy dissolves with the
		// retirements already billed. Kernel clone, never shown to a handler
		// at this node.
		ln.freePkt(pkt)
		return
	}
	st := &ln.sess[pkt.Session]
	for n := pkt.Strip(node); n > 0; n-- {
		if st.m.Delivered == nil {
			st.m.Delivered = make(map[int]int)
			st.m.DeliveredAt = make(map[int]float64)
		}
		if _, dup := st.m.Delivered[node]; !dup {
			st.m.Delivered[node] = pkt.Hops
			st.m.DeliveredAt[node] = ln.now
		} else {
			st.m.DuplicateDeliveries++
		}
	}
	if len(pkt.Dests) == 0 {
		// Fully delivered: this kernel clone was never shown to a handler at
		// this node (and each hop gets its own clone), so it can be recycled.
		ln.freePkt(pkt)
		return
	}
	fwds := r.handlers[pkt.Session].Decide(r.viewAt(ln, pkt.Session, node), pkt)
	if len(fwds) == 0 {
		r.kill(ln, node, -1, pkt, ReasonStranded)
	} else {
		r.billUncovered(ln, pkt, fwds)
		r.apply(ln, node, fwds)
	}
	if r.hopOrdered {
		ln.freePkt(pkt)
	}
}

// merge folds every lane's session partials into the coordinator base, in
// lane index order — the canonical reduction that makes even floating-point
// accumulation independent of the shard count — then settles deferred
// billing for redundant-copy sessions.
func (r *kernelRun) merge() []SessionMetrics {
	for _, ln := range r.lanes {
		for si := range ln.sess {
			p := &ln.sess[si].m
			o := &r.base[si]
			o.Transmissions += p.Transmissions
			o.EnergyJ += p.EnergyJ
			o.DuplicateDeliveries += p.DuplicateDeliveries
			o.Retransmissions += p.Retransmissions
			o.LinkFailures += p.LinkFailures
			o.Acks += p.Acks
			o.InvalidSends += p.InvalidSends
			for i := range p.DropsByReason {
				o.DropsByReason[i] += p.DropsByReason[i]
				o.DestDropsByReason[i] += p.DestDropsByReason[i]
			}
			for d, h := range p.Delivered {
				o.Delivered[d] = h
				o.DeliveredAt[d] = p.DeliveredAt[d]
			}
			for n, j := range p.EnergyByNode {
				o.EnergyByNode[n] += j
			}
		}
	}

	// Settle deferred per-destination billing for redundant-copy sessions,
	// against the now-complete delivered set. Each destination is charged its
	// globally-first drop — earliest lane time, ties broken by lane order
	// (the scan keeps the first lane's entry on equal times) — unless some
	// copy delivered it or churn retired it (already billed as ReasonLeft).
	for si := range r.base {
		if !r.redundant[si] {
			continue
		}
		var best map[int]pendingDrop
		for _, ln := range r.lanes {
			for d, pd := range ln.sess[si].pending {
				if best == nil {
					best = make(map[int]pendingDrop)
				}
				if cur, ok := best[d]; !ok || pd.at < cur.at {
					best[d] = pd
				}
			}
		}
		o := &r.base[si]
		for d, pd := range best {
			if _, ok := o.Delivered[d]; ok {
				continue
			}
			if r.churn != nil && r.churn[si] != nil && r.churn[si].retired[d] {
				continue
			}
			o.DestDropsByReason[pd.reason]++
		}
	}
	return r.base
}
