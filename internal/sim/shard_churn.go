package sim

// Barrier-time churn for the tiled policy. The single-queue policy applies
// membership changes lazily, at each hop arrival (hopChurn); a parallel
// run cannot, because an arrival in one tile must not reach into the
// coordinator's churn bookkeeping mid-round. Instead, churn fires at window
// barriers, when no worker is running and a key invariant holds: every live
// packet copy of a session is attached to exactly one queued event (a copy
// popped during a round either dissolves, delivers, or reappears as clones
// on follow-up events before the round ends). The barrier can therefore
// enumerate and edit every in-flight header directly:
//
//   - A fired leave strips the destination from every queued copy, billed as
//     ReasonLeft once per destination (the `retired` set dedupes duplicate
//     copies exactly as the single-queue policy does). Copies cloned later
//     inherit stripped parents, so one sweep per leave-firing barrier is
//     complete. Emptied copies dissolve, unbilled, when their event fires.
//   - A fired join is spliced into the earliest queued copy of its session —
//     earliest by the kernel's (time, tile, seq) order, i.e. the first copy
//     that would "pass by" — wherever in the region that copy is held, which
//     is exactly the remote-tile-inbox case the tests pin down. Joins with no
//     live copy to board stay pending; if none ever appears they are counted
//     JoinsMissed at the end of the run, like the single-queue policy.
//   - Retiring a copy's anchor destination re-anchors at the node currently
//     holding the copy (the receiver for a queued arrival, the sender for a
//     queued retry/give-up, the source for an unstarted session), the same
//     "re-anchor at the node in hand" rule hop-time churn applies.
//
// The observable divergence from the single-queue policy is bounded and
// one-sided: a change scheduled at time t takes effect at the first barrier
// whose floor T ≥ t, so it lands within one window (≤ lookahead) of where
// hop-arrival application would put it — and identically so for every shard
// count, since barriers depend only on event times, never on workers.

// churnBarrier fires all membership events with at ≤ T and applies them to
// the queued in-flight packets. Coordinator-only: runs between rounds.
func (r *kernelRun) churnBarrier(T float64) {
	for si, sc := range r.churn {
		if sc == nil {
			continue
		}
		if sc.fire(T, &r.base[si]) {
			r.stripLeft(si, sc)
		}
		if len(sc.ready) > 0 {
			r.spliceJoins(si, sc)
		}
	}
}

// stripLeft retires every left destination from every queued copy of session
// si, billing each retired destination once and re-anchoring copies whose
// anchor departed at the node holding them.
func (r *kernelRun) stripLeft(si int, sc *sessionChurn) {
	var retiredN int
	for _, ln := range r.lanes {
		for i := range ln.q {
			ev := &ln.q[i]
			if ev.pkt != nil && ev.pkt.Session == si {
				retiredN += sc.retire(ev.pkt, holderOf(ev))
			}
		}
	}
	if retiredN > 0 {
		// One retirement event per barrier sweep (the single-queue policy
		// counts one per affected packet); the destination-level counts —
		// the conservation invariant's side — are identical.
		r.base[si].DropsByReason[ReasonLeft]++
		r.base[si].DestDropsByReason[ReasonLeft] += retiredN
	}
}

// spliceJoins boards all ready joins onto the earliest queued copy of
// session si, in the kernel's event order. With no live copy the joins stay
// ready for a later barrier (or the epilogue's missed count).
func (r *kernelRun) spliceJoins(si int, sc *sessionChurn) {
	var best *event
	for _, ln := range r.lanes {
		for i := range ln.q {
			ev := &ln.q[i]
			if ev.pkt == nil || ev.pkt.Session != si {
				continue
			}
			if best == nil || eventBefore(ev, best) {
				best = ev
			}
		}
	}
	if best != nil {
		sc.splice(best.pkt, best.time, r.e.net.Pos, &r.base[si])
	}
}

// holderOf returns the node currently responsible for a queued event's
// packet: the receiver of an in-flight frame, the sender of a pending retry
// or give-up, the source of an unstarted session.
func holderOf(ev *event) int {
	if ev.kind == evReceive {
		return ev.to
	}
	return ev.from
}
