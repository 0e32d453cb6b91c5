package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// This file is the kernel's tiled scheduling policy: the copy rules of
// kernel.go, executed as per-tile lanes advanced in conservative time
// windows so one large network saturates many cores. DESIGN.md §2.4 derives the window
// and the determinism argument; the short version:
//
//   - The network's coarse tile layer (network.Tiles) partitions nodes by
//     geometry alone, never by shard count. Every event is keyed
//     (time, originating tile, originating sequence number) — a strict total
//     order assigned deterministically, because each tile's execution is
//     single-threaded and deterministic.
//   - Shards are workers, not partitions: a round hands tiles to Shards
//     goroutines exactly as the campaign runner hands cells to workers, so
//     the shard count changes wall-clock time and nothing else.
//   - Each round advances every tile from the global minimum next-event time
//     T to the horizon T+Window. Any event one tile schedules on another —
//     a frame crossing a tile border, an ARQ retry or give-up back at the
//     sender — lies at least Lookahead (minimum frame airtime, and the ARQ
//     timeout when ARQ is on) in the future. With Window ≤ Lookahead such
//     posts always land at or beyond the horizon, so nothing a tile does in
//     a round can affect another tile within the same round: tiles are
//     embarrassingly parallel between barriers.
//   - Cross-tile posts go to the target tile's inbox (a mutex-guarded
//     slice) and are merged into its queue at the next barrier; the heap
//     orders them by their keys, so arrival order — the only thing that
//     varies with scheduling — is irrelevant.
//   - All mutable state is tile-local (busy radios, crash flags, RNG
//     streams, packet pools, dead-link blacklists, metric partials) or
//     coordinator-owned and touched only at barriers (churn). Partials merge
//     in tile index order, so even float accumulation order is fixed.
//
// Membership churn, which under the single-queue policy is applied at each
// hop arrival, becomes barrier-time surgery here: when a join or leave fires,
// the coordinator edits the headers of the in-flight packets sitting in the
// tiles' queues and inboxes — a join is spliced into the earliest queued
// copy of its session (by event key, wherever in the region that copy is
// held), and a leave strips the destination from every queued copy, billed
// once as ReasonLeft. The conservation invariant delivered+dropped ==
// DestCount is preserved exactly; only the instant a change takes effect
// moves, by less than one window, relative to the single-queue policy.

// ShardConfig selects the kernel's scheduling policy on an Engine. The zero
// value selects the default single-queue policy; any non-zero configuration is
// validated strictly — there are no silent fallbacks for out-of-range
// values.
type ShardConfig struct {
	// Shards is the number of worker goroutines advancing tiles. Must be
	// ≥ 1. The output is byte-identical for every value; only wall-clock
	// time changes.
	Shards int
	// Window is the conservative synchronization window in virtual seconds:
	// each round advances every tile at most Window past the global minimum
	// next-event time. Must be positive, finite, and at most the run's
	// Lookahead — derive it with Lookahead(radio, arq). Larger windows mean
	// fewer barriers; Lookahead itself is optimal.
	Window float64
}

// Lookahead returns the conservative-sync lookahead of a radio/ARQ
// configuration: the minimum virtual-time distance between an event in one
// tile and the earliest event it can cause in another. Frames take at least
// the fixed-size airtime to cross a tile border, and ARQ's sender-side
// timers fire no sooner than the (normalized) ARQ timeout.
func Lookahead(radio RadioParams, arq ARQConfig) float64 {
	la := radio.TxTime()
	if arq.Enabled {
		n := arq.normalized(radio)
		if n.Timeout < la {
			la = n.Timeout
		}
	}
	return la
}

// SetSharding installs (or, with the zero config, removes) the tiled policy
// for subsequent runs. Non-positive shard counts and non-positive or
// non-finite windows are rejected; a window exceeding the run's lookahead is
// a programming error detected at run time.
func (e *Engine) SetSharding(c ShardConfig) error {
	if c == (ShardConfig{}) {
		e.sharding = c
		return nil
	}
	if c.Shards < 1 {
		return fmt.Errorf("sim: ShardConfig.Shards %d, must be at least 1", c.Shards)
	}
	if !(c.Window > 0) || math.IsInf(c.Window, 0) {
		return fmt.Errorf("sim: ShardConfig.Window %v, must be a positive finite duration (derive it with Lookahead)", c.Window)
	}
	e.sharding = c
	return nil
}

// Sharding returns the installed shard configuration (zero = single-queue
// policy).
func (e *Engine) Sharding() ShardConfig { return e.sharding }

// checkWindow validates a tiled run against the engine's configuration: no
// tracer, and a window within the run's lookahead.
func (r *kernelRun) checkWindow() {
	e := r.e
	if e.tracer != nil {
		panic("sim: tracing is not supported by the sharded kernel (trace ordering across tiles is not deterministic)")
	}
	la := Lookahead(e.radio, e.arq)
	if la <= 0 {
		panic(fmt.Sprintf("sim: non-positive lookahead %v (radio airtime must be positive)", la))
	}
	if e.sharding.Window > la {
		panic(fmt.Sprintf("sim: ShardConfig.Window %v exceeds the run's lookahead %v", e.sharding.Window, la))
	}
}

// runWindows is the tiled policy's conservative-window main loop.
func (r *kernelRun) runWindows() {
	workers := r.e.sharding.Shards
	if workers > len(r.lanes) {
		workers = len(r.lanes)
	}
	for {
		// Barrier phase: merge inboxes, find the global floor, apply churn.
		minTime := math.Inf(1)
		for _, ln := range r.lanes {
			// No lock needed: all workers have joined; this coordinator
			// read happens after their final inbox appends.
			for _, ev := range ln.inbox {
				ln.q.push(ev)
			}
			ln.inbox = ln.inbox[:0]
			if len(ln.q) > 0 && ln.q[0].time < minTime {
				minTime = ln.q[0].time
			}
		}
		if math.IsInf(minTime, 1) {
			return
		}
		if r.churn != nil {
			r.churnBarrier(minTime)
		}
		horizon := minTime + r.window

		// Parallel phase: workers pull tiles exactly as campaign workers
		// pull cells; each lane advances to the horizon single-threaded.
		if workers <= 1 {
			for _, ln := range r.lanes {
				r.advance(ln, horizon)
			}
			continue
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(r.lanes) {
						return
					}
					r.advance(r.lanes[i], horizon)
				}
			}()
		}
		wg.Wait()
	}
}
