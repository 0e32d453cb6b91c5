package view

import (
	"gmp/internal/geom"
	"gmp/internal/planar"
)

// PerimeterEnter returns the initial face-traversal state for a packet
// entering perimeter mode at v aiming at target.
func PerimeterEnter(v NodeView, target geom.Point) planar.State {
	return planar.EnterAt(v.PlanarSelfPos(), target)
}

// PerimeterNextHop advances the right-hand-rule traversal one step using
// v's local planar adjacency, with v's cached planar bearings.
// ok=false means v has no planar neighbors (traversal cannot proceed).
// Protocol decision cores should use PerimeterStep, which adds the
// watchdog supervision; this is the raw traversal core.
func PerimeterNextHop(v NodeView, st planar.State) (next int, out planar.State, ok bool) {
	return planar.NextHopLocal(v.Self(), v.PlanarSelfPos(), v.PlanarNeighbors(),
		v.PlanarPos, v.PlanarBearings(), st)
}

// FaceNextHop advances one face-routing step (planar.NextHopLocalFace2)
// using v's local planar adjacency: face changes are side-aware — the walk
// only switches to the adjacent face when the target-side continuation of
// the entry→target segment leaves the current face — which makes
// full-face-tour detection a sound unreachability test. This is the
// traversal core for protocols that have no greedy fallback and no watchdog
// (MCFR).
func FaceNextHop(v NodeView, st planar.State) (next int, out planar.State, ok bool) {
	return planar.NextHopLocalFace2(v.Self(), v.PlanarSelfPos(), v.PlanarNeighbors(),
		v.PlanarPos, v.PlanarBearings(), st)
}

// StepVerdict classifies one supervised perimeter step.
type StepVerdict int

const (
	// StepOK: the walk advanced; forward to next with the returned state.
	StepOK StepVerdict = iota
	// StepDead: the node has no planar neighbors — the walk cannot proceed
	// (the pre-watchdog dead end; protocols drop the copy).
	StepDead
	// StepWatchdog: the watchdog detected a loop or an exhausted budget and
	// its bounded recovery is spent — kill the copy as watchdog-dropped.
	StepWatchdog
)

// PerimeterStep advances a face traversal one step under watchdog
// supervision. With the watchdog disarmed (a view without WatchdogCarrier,
// or zero WatchdogLimits — every default provider) it is behaviorally
// identical to PerimeterNextHop.
//
// Armed, it additionally (a) detects closed loops — the walk re-taking its
// first directed edge means a full face traversal found no exit, which under
// mutually inconsistent live planarizations would otherwise spin until the
// hop budget —, (b) enforces the walk's hop and distance budgets, and (c) on
// the first trip, restarts the walk once from the current node over the
// alternate planarization rule (Gabriel ↔ RNG) before returning
// StepWatchdog.
//
// One-sided links are tolerated in either mode: a st.Prev outside v's
// knowledge (NbrPosOK miss) falls back to the target-line reference bearing
// instead of a bearing to the zero-Point origin.
func PerimeterStep(v NodeView, st planar.State) (next int, out planar.State, verdict StepVerdict) {
	if st.Prev != -1 {
		if _, known := v.NbrPosOK(st.Prev); !known {
			st.Prev = -1
		}
	}
	var limits WatchdogLimits
	if wc, ok := v.(WatchdogCarrier); ok {
		limits = wc.PerimeterWatchdog()
	}
	if !limits.Armed() {
		next, out, ok := PerimeterNextHop(v, st)
		if !ok {
			return -1, st, StepDead
		}
		return next, out, StepOK
	}

	next, out, ok := perimeterAdvance(v, st)
	if !ok {
		return -1, st, StepDead
	}
	loop := out.FirstFrom == v.Self() && out.FirstTo == next
	if out.FirstFrom == -1 {
		out.FirstFrom, out.FirstTo = v.Self(), next
	}
	out.WalkHops++
	out.WalkDist += v.PlanarSelfPos().Dist(v.PlanarPos(next))
	over := (limits.MaxWalkHops > 0 && out.WalkHops > limits.MaxWalkHops) ||
		(limits.MaxWalkDist > 0 && out.WalkDist > limits.MaxWalkDist)
	if !loop && !over {
		return next, out, StepOK
	}
	if !out.Restarted {
		rst := planar.EnterAt(v.PlanarSelfPos(), st.Target)
		rst.Restarted = true
		rst.AltPlanar = true
		if n2, o2, ok2 := perimeterAdvance(v, rst); ok2 {
			o2.FirstFrom, o2.FirstTo = v.Self(), n2
			o2.WalkHops = 1
			o2.WalkDist = v.PlanarSelfPos().Dist(v.PlanarPos(n2))
			return n2, o2, StepOK
		}
	}
	return -1, st, StepWatchdog
}

// perimeterAdvance runs the traversal core over the state's selected
// adjacency: the alternate planarization after a watchdog restart (bearings
// computed on the fly — restarts are rare), the primary otherwise. A view
// without AltPlanarView falls back to the primary adjacency.
func perimeterAdvance(v NodeView, st planar.State) (int, planar.State, bool) {
	if st.AltPlanar {
		if av, ok := v.(AltPlanarView); ok {
			return planar.NextHopLocal(v.Self(), v.PlanarSelfPos(),
				av.AltPlanarNeighbors(), v.PlanarPos, nil, st)
		}
	}
	return PerimeterNextHop(v, st)
}
