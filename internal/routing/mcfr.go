package routing

import (
	"gmp/internal/planar"
	"gmp/internal/sim"
	"gmp/internal/view"
)

func init() {
	MustRegister(Spec{Name: "MCFR", Flags: FlagConcurrent,
		New: func(Ctx) Protocol { return NewMCFR() }})
}

// MCFR is concurrent geometric multicasting (Bhattacharya & Nesterenko,
// arXiv 1706.05263): multicast face routing with a delivery guarantee on a
// connected, consistently planarized substrate. Like LGS it organizes the
// destinations into an MST and anchors one packet copy per subtree, but the
// anchor-bound traversal is pure face routing launched concurrently along
// *both* face directions — a senior thread sweeping the right-hand rule and
// a junior thread sweeping the left-hand rule (planar.State.Reverse). The
// first thread to reach a node delivers for both (the engine strips
// delivered destinations at arrival; the loser's arrival counts as a
// duplicate delivery). The anchor node acts as the jury that terminates the
// redundancy: a junior thread arriving there drops, while the senior thread
// re-partitions the group's remaining destinations into fresh concurrent
// subtree threads. Unlike GMP's perimeter fallback, no greedy progress is
// ever required, so long voids, combs and spirals — where GMP's watchdog
// gives up — cannot strand a destination.
//
// Each thread terminates on its own: a face traversal that retakes the
// walk's first directed edge without an intervening face change has toured
// the entire face and found no crossing toward the target — on a planar
// substrate that only happens when the target is unreachable, and the
// thread drops. FACE-2 face changes (advance the face-entry point along the
// entry→target segment at every properly-crossing edge) strictly decrease
// the remaining distance, so the walk reaches the anchor in a connected
// component after finitely many face tours.
//
// MCFR implements sim.RedundantHandler: the engine tolerates its duplicate
// deliveries and defers per-destination drop billing, keeping the
// delivered+dropped conservation invariant exact across redundant copies.
type MCFR struct{}

var _ Protocol = (*MCFR)(nil)
var _ sim.RedundantHandler = (*MCFR)(nil)
var _ sim.NackHandler = (*MCFR)(nil)

// NewMCFR returns the concurrent face-routing protocol.
func NewMCFR() *MCFR { return &MCFR{} }

// Name implements Protocol.
func (m *MCFR) Name() string { return "MCFR" }

// RedundantCopies implements sim.RedundantHandler: the senior/junior thread
// pair duplicates destinations across concurrent copies by design.
func (m *MCFR) RedundantCopies() bool { return true }

// Start implements sim.Handler: the source partitions the destination set
// and launches the first concurrent thread pairs.
func (m *MCFR) Start(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	return m.partition(v, pkt)
}

// Decide implements sim.Handler. A copy anchored at this node has reached
// its subtree root: the jury point. The junior thread retires there — the
// senior thread (which face routing guarantees will also arrive) owns the
// re-partition — so exactly one thread plans the subtree's next round.
func (m *MCFR) Decide(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	if pkt.Anchor == v.Self() {
		if pkt.Peri.Junior {
			return dropOnly(pkt)
		}
		return m.partition(v, pkt)
	}
	return m.relay(v, pkt)
}

// Nack implements sim.NackHandler: after an ARQ give-up the engine has
// already banned the dead link, so the thread re-enters the face walk at the
// sender over the masked adjacency, preserving its direction.
func (m *MCFR) Nack(v view.NodeView, to int, pkt *sim.Packet) []sim.Forward {
	st := planar.EnterAt(v.PlanarSelfPos(), pkt.Peri.Target)
	st.Reverse = pkt.Peri.Reverse
	st.Junior = pkt.Peri.Junior
	return m.advance(v, pkt, st, false)
}

// partition rebuilds the MST at a subtree root and launches one concurrent
// senior/junior thread pair per child group, aimed at the group's anchor.
func (m *MCFR) partition(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	var fwds []sim.Forward
	mstGroups(v, pkt, func(anchor int, group []int) {
		for _, junior := range []bool{false, true} {
			cp := pkt.CloneFor(append([]int(nil), group...))
			cp.Anchor = anchor
			st := planar.EnterAt(v.PlanarSelfPos(), cp.LocOf(anchor))
			st.Reverse = junior
			st.Junior = junior
			fwds = append(fwds, m.advance(v, cp, st, true)...)
		}
	})
	return fwds
}

// relay takes the arriving thread's next raw face step.
func (m *MCFR) relay(v view.NodeView, pkt *sim.Packet) []sim.Forward {
	st := pkt.Peri
	if st.Prev != -1 {
		// One-sided knowledge (stale tables, churn): the previous hop is not
		// in this node's table, so re-reference the walk off the target line.
		if _, known := v.NbrPosOK(st.Prev); !known {
			st.Prev = -1
		}
	}
	return m.advance(v, pkt, st, false)
}

// advance executes one face-routing step from this node under state st and
// forwards the thread, detecting full-face tours. owned marks copies built
// by this decision, which may be stamped in place; arriving packets are
// cloned first (decisions never mutate their input).
func (m *MCFR) advance(v view.NodeView, pkt *sim.Packet, st planar.State, owned bool) []sim.Forward {
	next, nst, ok := view.FaceNextHop(v, st)
	if !ok {
		// No planar neighbors: the thread cannot proceed.
		return dropOnly(pkt)
	}
	if nst.FaceEntry != st.FaceEntry || st.FirstFrom == -1 {
		// New face (or first step of the walk): record its first directed
		// edge as the tour sentinel.
		nst.FirstFrom, nst.FirstTo = v.Self(), next
	} else if st.FirstFrom == v.Self() && st.FirstTo == next {
		// The walk is about to retake the face's first directed edge with no
		// face change in between: the whole face was toured and no crossing
		// brings the thread closer — the anchor is unreachable from here.
		return dropOnly(pkt)
	}
	out := pkt
	if !owned {
		out = pkt.Clone()
	}
	out.Perimeter = true
	out.Peri = nst
	return []sim.Forward{{To: next, Pkt: out}}
}
