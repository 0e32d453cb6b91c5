package sim

import (
	"fmt"
	"math"
	"sort"

	"gmp/internal/geom"
)

// Motion is a true-position stream: the physical positions of all nodes at
// virtual time t (seconds since the run began). The engine samples it at
// every transmission to decide whether two nominally adjacent nodes have
// drifted out of radio range — advertised (beacon-table) positions are a
// separate, possibly stale concern that lives in the view provider. The
// mobility package's samplers convert a waypoint model into this shape; the
// beacon package's PositionsAt has the identical underlying type.
type Motion func(t float64) []geom.Point

// Membership schedules one group-membership change inside a run: node joins
// (or leaves) the destination set of the given session at virtual time At.
//
// Joins are spliced into the session's in-flight packet header at the first
// hop arrival after At — the wire format already carries the destination
// list, so stateless cores re-plan around the newcomer with no extra
// machinery. A join for a node that is already a destination (or that
// previously left) is counted as missed, not spliced.
//
// Leaves retire the destination at the first arrival after At: it is
// stripped from the header and billed as ReasonLeft, which keeps the
// delivered+dropped conservation invariant exact. A node that left cannot
// rejoin within the same session.
type Membership struct {
	// Session indexes the script session the change applies to (0 for
	// RunTask). Sessions beyond the script are a programming error: RunScript
	// panics.
	Session int
	// Node is the joining/leaving node ID.
	Node int
	// At is the virtual time of the change in seconds (absolute scheduler
	// time, the same clock Session.Start uses).
	At float64
}

// ChurnPlan makes time-varying membership and position first-class in the
// engine: scheduled destination joins and leaves, plus an optional Motion
// stream that lets true positions drift away from the (static) deployment
// the routing state was built from.
//
// The zero plan is a strict no-op: no events, no motion sampling, and runs
// are byte-identical to an engine that never had a plan installed.
type ChurnPlan struct {
	// Joins and Leaves are the scheduled membership changes, in any order.
	Joins  []Membership
	Leaves []Membership
	// Motion, when non-nil, is sampled at every transmission: a frame between
	// nodes whose true positions are farther apart than the radio range is
	// lost on the air (billed as ReasonLinkLoss, retried under ARQ like any
	// other loss). It must cover every node of the engine's network.
	Motion Motion
}

// Active reports whether the plan does anything at all.
func (p ChurnPlan) Active() bool {
	return len(p.Joins) > 0 || len(p.Leaves) > 0 || p.Motion != nil
}

// hasEvents reports whether the plan schedules membership changes.
func (p ChurnPlan) hasEvents() bool { return len(p.Joins) > 0 || len(p.Leaves) > 0 }

// Validate checks the plan against a network of n nodes.
func (p ChurnPlan) Validate(n int) error {
	check := func(kind string, ms []Membership) error {
		for _, m := range ms {
			if m.Node < 0 || m.Node >= n {
				return fmt.Errorf("sim: churn %s node %d out of range [0,%d)", kind, m.Node, n)
			}
			if m.Session < 0 {
				return fmt.Errorf("sim: churn %s session %d negative", kind, m.Session)
			}
			if math.IsNaN(m.At) || math.IsInf(m.At, 0) || m.At < 0 {
				return fmt.Errorf("sim: churn %s time %v not a finite non-negative number", kind, m.At)
			}
		}
		return nil
	}
	if err := check("join", p.Joins); err != nil {
		return err
	}
	if err := check("leave", p.Leaves); err != nil {
		return err
	}
	if p.Motion != nil {
		if got := len(p.Motion(0)); got != n {
			return fmt.Errorf("sim: churn motion covers %d nodes, network has %d", got, n)
		}
	}
	return nil
}

// SetChurn installs a churn plan for subsequent runs. The zero plan restores
// the static-membership, static-position engine exactly (a strict no-op).
func (e *Engine) SetChurn(p ChurnPlan) error {
	if err := p.Validate(e.net.Len()); err != nil {
		return err
	}
	e.churn = p
	return nil
}

// Churn returns the installed churn plan.
func (e *Engine) Churn() ChurnPlan { return e.churn }

// churnEvent is one membership change in a session's merged, time-ordered
// event stream.
type churnEvent struct {
	at   float64
	join bool
	node int
}

// sessionChurn is one session's churn bookkeeping. It exists only for
// sessions the installed plan schedules events for; everything else keeps a
// nil pointer and the zero-plan fast path.
type sessionChurn struct {
	src    int
	events []churnEvent // sorted by (at, leaves-before-joins, node)
	next   int          // first unfired event
	// ready holds join nodes whose events fired but that have not yet been
	// spliced aboard a packet.
	ready []int
	// member marks nodes that are, or are scheduled to become, destinations
	// of this session (seeded from the task's destination set).
	member map[int]bool
	// left marks nodes whose leave event fired; they are retired from any
	// header they still ride and can never rejoin this session.
	left map[int]bool
	// retired marks left destinations already billed as ReasonLeft, so
	// duplicate copies (geocast) cannot double-count the retirement.
	retired map[int]bool
}

// newSessionChurn builds session s's bookkeeping from the plan's events, or
// returns nil when the plan schedules nothing for it.
func (p ChurnPlan) newSessionChurn(session, src int, dests []int) *sessionChurn {
	var events []churnEvent
	for _, m := range p.Leaves {
		if m.Session == session {
			events = append(events, churnEvent{at: m.At, join: false, node: m.Node})
		}
	}
	for _, m := range p.Joins {
		if m.Session == session {
			events = append(events, churnEvent{at: m.At, join: true, node: m.Node})
		}
	}
	if len(events) == 0 {
		return nil
	}
	// Deterministic order: time, then leaves before joins (a same-instant
	// leave wins over a join of the same node), then node ID.
	sort.SliceStable(events, func(a, b int) bool {
		if events[a].at != events[b].at {
			return events[a].at < events[b].at
		}
		if events[a].join != events[b].join {
			return !events[a].join
		}
		return events[a].node < events[b].node
	})
	sc := &sessionChurn{
		src:    src,
		events: events,
		member: make(map[int]bool, len(dests)),
		left:   make(map[int]bool),
	}
	for _, d := range dests {
		sc.member[d] = true
	}
	return sc
}

// fire advances sc's events to time t: a fired leave marks its node left
// (retired from every header it still rides, never to rejoin); a fired join
// of a node that is not, and never was, a member queues for splicing, and
// any other join is counted missed in m. It reports whether a leave fired.
func (sc *sessionChurn) fire(t float64, m *SessionMetrics) (newLeaves bool) {
	for sc.next < len(sc.events) && sc.events[sc.next].at <= t {
		ev := sc.events[sc.next]
		sc.next++
		if !ev.join {
			sc.left[ev.node] = true
			newLeaves = true
			continue
		}
		if sc.member[ev.node] || sc.left[ev.node] {
			m.JoinsMissed++
			continue
		}
		sc.member[ev.node] = true
		sc.ready = append(sc.ready, ev.node)
	}
	return newLeaves
}

// retire strips every left destination from pkt's header and reports how
// many of them were retired for the first time (duplicate copies — geocast —
// must not double-count a retirement). Anchor-steered protocols (LGS/LGK)
// keep a destination ID in pkt.Anchor and look up its header location every
// relay hop; retiring that destination would leave the anchor dangling, so
// the copy is re-anchored at holder, the node holding the packet — the
// handler sees itself as the subtree root and re-partitions around the
// departure.
func (sc *sessionChurn) retire(pkt *Packet, holder int) int {
	var n int
	for i := 0; i < len(pkt.Dests); {
		d := pkt.Dests[i]
		if !sc.left[d] {
			i++
			continue
		}
		pkt.Strip(d)
		if !sc.retired[d] {
			if sc.retired == nil {
				sc.retired = make(map[int]bool)
			}
			sc.retired[d] = true
			n++
		}
	}
	if pkt.Anchor >= 0 && sc.left[pkt.Anchor] {
		pkt.Anchor = holder
	}
	return n
}

// splice boards every ready join onto pkt at time now, so the next decision
// re-plans around the newcomers. A join whose leave overtook it before any
// packet passed by is counted missed; the source joining its own group is
// trivially delivered where the task originated, at hop 0.
func (sc *sessionChurn) splice(pkt *Packet, now float64, pos func(int) geom.Point, m *SessionMetrics) {
	for _, j := range sc.ready {
		if sc.left[j] {
			m.JoinsMissed++
			continue
		}
		m.DestCount++
		m.JoinsSpliced++
		if j == sc.src {
			m.Delivered[j] = 0
			m.DeliveredAt[j] = now
			continue
		}
		pkt.Dests = append(pkt.Dests, j)
		pkt.Locs = append(pkt.Locs, pos(j))
	}
	sc.ready = sc.ready[:0]
}

// hopChurn is the single-queue policy's churn: it advances the session's
// events to now and applies them to the packet in hand — fired leaves
// retire destinations (billed as ReasonLeft, one event per affected copy),
// fired joins splice into this copy. Called at Start and on every hop
// arrival, before delivery bookkeeping, so a leave beats a delivery at the
// exact same instant. at is the node holding the packet. The tiled policy
// applies churn at window barriers instead (shard_churn.go).
func (r *kernelRun) hopChurn(pkt *Packet, at int, now float64) {
	if r.tiled || r.churn == nil || r.churn[pkt.Session] == nil {
		return
	}
	sc, m := r.churn[pkt.Session], &r.base[pkt.Session]
	sc.fire(now, m)
	if len(sc.left) > 0 {
		if n := sc.retire(pkt, at); n > 0 {
			m.DropsByReason[ReasonLeft]++
			m.DestDropsByReason[ReasonLeft] += n
		}
	}
	if len(sc.ready) > 0 {
		sc.splice(pkt, now, r.e.net.Pos, m)
	}
}

// churnEpilogue counts joins that never fired (the session finished first)
// or fired with no packet left to board as missed, so every scheduled join
// lands in exactly one of JoinsSpliced/JoinsMissed.
func (r *kernelRun) churnEpilogue() {
	for si, sc := range r.churn {
		if sc == nil {
			continue
		}
		for ; sc.next < len(sc.events); sc.next++ {
			if sc.events[sc.next].join {
				r.base[si].JoinsMissed++
			}
		}
		r.base[si].JoinsMissed += len(sc.ready)
		sc.ready = nil
	}
}

// motionInRange reports whether from and to are within radio range under the
// plan's true-position stream at time t.
func (e *Engine) motionInRange(from, to int, t float64) bool {
	pts := e.churn.Motion(t)
	r := e.net.Range()
	return pts[from].Dist2(pts[to]) <= r*r
}
